// rw_read_mostly: make_reservation_proxy(64, 64) driven by 3 closed-loop
// client threads, 90 % query / 5 % reserve / 5 % cancel on uniform seats.
//
// Shared and exclusive admission in `core` is almost all of the work; the
// bodies are trivial and storage and the async engine are not on the path.
// The 5 % writers are the "writes beside reads" check: write_p99_us shows
// a reader-side win that costs writers.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/reservation/reservation_proxy.hpp"
#include "bench.hpp"
#include "call.hpp"

namespace perfbench {
namespace {

using amf::apps::reservation::cancel_method;
using amf::apps::reservation::make_reservation_proxy;
using amf::apps::reservation::query_method;
using amf::apps::reservation::reserve_method;
using amf::apps::reservation::ReservationProxy;
using amf::apps::reservation::ReservationSystem;
using amf::apps::reservation::Seat;

constexpr std::size_t kRows = 64;
constexpr std::size_t kCols = 64;
constexpr std::size_t kSeats = kRows * kCols;
constexpr int kClients = 3;
constexpr int kSetupBuilds = 50;  // before the clients start, and after

enum class Op { kQuery, kReserve, kCancel };

/// One client thread's state; owned by the thread until it is joined.
struct alignas(64) Client {
  std::uint64_t attempted = 0;
  std::uint64_t window_calls = 0;
  std::uint64_t window_failed = 0;
  std::uint64_t window_allocs = 0;
  std::uint64_t anomalies = 0;  // acks or reads that contradict the ledger
  std::vector<std::uint8_t> held = std::vector<std::uint8_t>(kSeats, 0);
  LatencyHistogram all, writes, wait;  // over the measured window
  Tracer tr;
};

// Phases of the run, as the clients see them.
constexpr int kWarmup = 0, kMeasure = 1, kStop = 2;

bool is_client_name(const std::string& s) {
  return s.size() == 2 && s[0] == 'c' && s[1] >= '0' &&
         s[1] < static_cast<char>('0' + kClients);
}

struct CallResult {
  bool ok = false;
  bool acked = false;  // reserve/cancel returned true
  std::int64_t wait_ns = 0;
};

CallResult issue(ReservationProxy& proxy, Op op, Seat seat,
                 const std::string& who, Client& c, std::uint64_t call_id) {
  CallResult out;
  if constexpr (kTraced) {
    Scope root(c.tr, SpanName::kCall, call_id);
    auto no_setup = [](amf::core::InvocationContext&) {};
    TracedOutcome t;
    switch (op) {
      case Op::kQuery:
        t = traced_call(
            proxy, query_method(), no_setup,
            [&](ReservationSystem& s) {
              const auto h = s.holder(seat);
              if (h && !is_client_name(*h)) ++c.anomalies;
            },
            c.tr, call_id);
        break;
      case Op::kReserve:
        t = traced_call(
            proxy, reserve_method(), no_setup,
            [&](ReservationSystem& s) { out.acked = s.reserve(seat, who); },
            c.tr, call_id);
        break;
      case Op::kCancel:
        t = traced_call(
            proxy, cancel_method(), no_setup,
            [&](ReservationSystem& s) { out.acked = s.cancel(seat, who); },
            c.tr, call_id);
        break;
    }
    out.ok = t.ok;
    out.wait_ns = t.wait_ns;
  } else {
    (void)call_id;
    switch (op) {
      case Op::kQuery: {
        auto r = proxy.invoke(query_method(), [&](ReservationSystem& s) {
          return s.holder(seat);
        });
        out.ok = r.ok();
        if (out.ok && *r.value && !is_client_name(**r.value)) ++c.anomalies;
        break;
      }
      case Op::kReserve: {
        auto r = proxy.invoke(reserve_method(), [&](ReservationSystem& s) {
          return s.reserve(seat, who);
        });
        out.ok = r.ok();
        out.acked = out.ok && *r.value;
        break;
      }
      case Op::kCancel: {
        auto r = proxy.invoke(cancel_method(), [&](ReservationSystem& s) {
          return s.cancel(seat, who);
        });
        out.ok = r.ok();
        out.acked = out.ok && *r.value;
        break;
      }
    }
  }
  return out;
}

void client_loop(ReservationProxy& proxy, Client& c, int idx,
                 std::uint64_t seed, const std::atomic<int>& phase) {
  Rng rng(stream_seed(seed, static_cast<std::uint64_t>(idx)));
  const std::string who = "c" + std::to_string(idx);
  const std::uint64_t id_base = static_cast<std::uint64_t>(idx + 1) << 48;
  int seen = kWarmup;
  std::uint64_t allocs0 = 0;
  for (;;) {
    const int p = phase.load(std::memory_order_relaxed);
    if (p != seen) {
      if (seen == kWarmup) {
        c.tr.set_active(true);
        allocs0 = thread_allocs();
      }
      if (p == kStop) {
        c.tr.set_active(false);
        c.window_allocs = thread_allocs() - allocs0;
        return;
      }
      seen = p;
    }

    const std::uint64_t pick = rng.below(100);
    const Op op = pick < 90 ? Op::kQuery : pick < 95 ? Op::kReserve
                                                      : Op::kCancel;
    const Seat seat{rng.below(kRows), rng.below(kCols)};
    const std::int64_t t0 = now_ns();
    const CallResult r = issue(proxy, op, seat, who, c, id_base + c.attempted);
    const std::int64_t t1 = now_ns();

    std::uint8_t& held = c.held[seat.row * kCols + seat.col];
    if (r.acked) {
      // A granted reserve needs a free seat; a granted cancel a held one.
      if ((op == Op::kReserve) == (held != 0)) ++c.anomalies;
      held = op == Op::kReserve ? 1 : 0;
    }
    ++c.attempted;
    if (p == kMeasure) {
      ++c.window_calls;
      if (!r.ok) ++c.window_failed;
      c.all.record(t1 - t0);
      if (op != Op::kQuery) c.writes.record(t1 - t0);
      if constexpr (kTraced) c.wait.record(r.wait_ns);
    }
  }
}

}  // namespace

Report run_rw_read_mostly(const Options& o) {
  Report r;
  const std::int64_t run_t0 = now_ns();

  // Set-up: build and wire the service; the last build is the one used.
  std::shared_ptr<ReservationProxy> proxy;
  auto build = [] { return make_reservation_proxy(kRows, kCols); };
  std::vector<double> setup;
  timed_builds(kSetupBuilds, proxy, build, setup);

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>());
  }
  std::atomic<int> phase{kWarmup};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(client_loop, std::ref(*proxy), std::ref(*clients[i]),
                         i, o.seed, std::cref(phase));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

  auto counts = [&] {
    return moderator_counts(proxy->moderator(), {query_method(),
                                                 reserve_method(),
                                                 cancel_method()});
  };
  const ModeratorCounts before = counts();
  const std::int64_t w0 = now_ns();
  const std::int64_t w_end = w0 + static_cast<std::int64_t>(o.seconds * 1e9);
  phase.store(kMeasure, std::memory_order_relaxed);
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(w_end)));
  phase.store(kStop, std::memory_order_relaxed);
  const double window_s = seconds_between(w0, now_ns());
  const ModeratorCounts after = counts();
  for (auto& t : threads) t.join();

  // More set-up samples, now that no client runs.
  {
    std::shared_ptr<ReservationProxy> spare;
    timed_builds(kSetupBuilds, spare, build, setup);
  }

  // --- output checks --------------------------------------------------------
  std::uint64_t attempted = 0, anomalies = 0;
  LatencyHistogram all, writes, wait;
  Tracer merged;
  std::uint64_t window_calls = 0, window_failed = 0, window_allocs = 0;
  for (const auto& c : clients) {
    attempted += c->attempted;
    anomalies += c->anomalies;
    window_calls += c->window_calls;
    window_failed += c->window_failed;
    window_allocs += c->window_allocs;
    all.merge(c->all);
    writes.merge(c->writes);
    wait.merge(c->wait);
    merged.merge(c->tr);
  }
  bool paired = true;
  std::uint64_t admitted = 0;
  for (const auto m : {query_method(), reserve_method(), cancel_method()}) {
    const auto s = proxy->moderator().stats(m);
    paired = paired && s.admitted == s.completed;
    admitted += s.admitted;
  }
  r.check("stats.admitted_equals_completed", paired);
  r.check("stats.admitted_sum_equals_attempted", admitted == attempted);

  const ReservationSystem& grid = proxy->component();
  std::size_t empty = 0;
  bool holders_valid = true, ledger_match = true;
  for (std::size_t row = 0; row < kRows; ++row) {
    for (std::size_t col = 0; col < kCols; ++col) {
      const auto h = grid.holder(Seat{row, col});
      int owner = -1;
      for (int i = 0; i < kClients; ++i) {
        if (clients[i]->held[row * kCols + col] != 0) owner = i;
      }
      if (!h) {
        ++empty;
        ledger_match = ledger_match && owner < 0;
      } else {
        holders_valid = holders_valid && is_client_name(*h);
        ledger_match = ledger_match && *h == "c" + std::to_string(owner);
      }
    }
  }
  r.check("seats.holders_are_clients", holders_valid);
  r.check("seats.available_equals_empty", grid.available() == empty);
  r.check("seats.match_client_ledgers", ledger_match && anomalies == 0);

  // --- metrics -------------------------------------------------------------
  r.attempted = window_calls;
  r.failed = window_failed;
  report_end_to_end(r, median(setup), window_calls, window_s, all, writes);
  r.note("setup_builds", static_cast<double>(setup.size()));

  if constexpr (kTraced) {
    report_layers(r, merged, window_calls, window_allocs, wait);
    r.metric("core.fast_admit_ratio",
             ratio(static_cast<double>(after.fast - before.fast),
                   static_cast<double>(after.admitted - before.admitted)),
             "ratio");
    r.metric("core.block_events_per_kcall",
             ratio(1e3 * static_cast<double>(after.block_events -
                                             before.block_events),
                   static_cast<double>(window_calls)),
             "1/kcall");
    if (!o.trace_out.empty()) {
      std::vector<const Tracer*> tracers;
      for (const auto& c : clients) tracers.push_back(&c->tr);
      r.check("trace.spans_written", write_spans(o.trace_out, tracers, run_t0));
    }
  }
  return r;
}

}  // namespace perfbench
