// The traced driver's synchronous call: the public sequence
// ComponentProxy::execute runs (context, preactivation, body,
// postactivation), spelled out so each phase gets its own span.
#pragma once

#include <initializer_list>
#include <optional>

#include "bench.hpp"
#include "core/proxy.hpp"

namespace perfbench {

/// Moderator counters summed over a workload's methods.
struct ModeratorCounts {
  std::uint64_t admitted = 0;
  std::uint64_t block_events = 0;
  std::uint64_t fast = 0;  // fast_admissions(), all methods
};

inline ModeratorCounts moderator_counts(
    const amf::core::AspectModerator& moderator,
    std::initializer_list<amf::runtime::MethodId> methods) {
  ModeratorCounts c;
  for (const auto m : methods) {
    const auto s = moderator.stats(m);
    c.admitted += s.admitted;
    c.block_events += s.block_events;
  }
  c.fast = moderator.fast_admissions();
  return c;
}

struct TracedOutcome {
  bool ok = false;
  std::int64_t wait_ns = 0;  // InvocationResult::wait_time of the call
};

/// `setup(ctx)` fills the context the way the public wrapper would (notes,
/// principal); `body(component)` is the component call.
template <typename C, typename Setup, typename Body>
TracedOutcome traced_call(amf::core::ComponentProxy<C>& proxy,
                          amf::runtime::MethodId method, Setup&& setup,
                          Body&& body, Tracer& tr, std::uint64_t call_id) {
  std::optional<amf::core::InvocationContext> ctx;
  {
    Scope span(tr, SpanName::kContext, call_id);
    ctx.emplace(method);
    setup(*ctx);
  }
  {
    Scope span(tr, SpanName::kAdmit, call_id);
    if (proxy.moderator().preactivation(*ctx) !=
        amf::core::Decision::kResume) {
      return {};
    }
  }
  TracedOutcome out;
  out.wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    ctx->admitted_at() - ctx->enqueued_at())
                    .count();
  out.ok = true;
  {
    Scope span(tr, SpanName::kBody, call_id);
    try {
      body(proxy.component());
    } catch (...) {
      out.ok = false;
    }
  }
  ctx->set_body_succeeded(out.ok);
  {
    Scope span(tr, SpanName::kComplete, call_id);
    proxy.moderator().postactivation(*ctx);
  }
  return out;
}

}  // namespace perfbench
