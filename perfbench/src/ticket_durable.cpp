// ticket_durable: DurableTicketApp with capacity 64 and group commit every
// 64 records (WalOptions::sync_every = 64, E16's deployment setting),
// driven in fixed-length episodes:
//
//   fresh directory → open the app (set-up) → one opener thread makes
//   kTickets open_ticket calls while one assigner thread makes kTickets
//   assign_ticket calls, both closed loop → drop the app → reopen the
//   directory (recovery: replay of the 2 × kTickets-record log) → ack
//   oracle.
//
// Every call is a write: exclusion serializes the writers, the
// producer/consumer sync aspects block and wake, and storage runs codec,
// WAL append and group fsync on every call. The core fast path does little
// and the async engine is not on the path. Episodes repeat until the
// window ends, so the log length is fixed and no call is left blocked.
//
// ticket_durable_async is the same workload with the assigner's calls made
// through the async engine: each assign is an AsyncCall (started, then
// waited for by progressing the assigner's persona), so every assign that
// finds the buffer empty parks, and the opener's open transfers it to the
// assigner's persona. It is the benchmark's concurrency workload, rather
// than a storm of parked calls on one thread (park K, open K, drain): with
// only the CPU to wait on, such a storm's rate follows the host's CPU
// speed, which on a shared host drifts by up to a third over minutes, and
// ten-run sets of it spread 0.10-0.32 of their median (4-vCPU Xeon VM).
#include <barrier>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/ticket/durable_ticket.hpp"
#include "bench.hpp"
#include "call.hpp"
#include "concurrency/progress.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using amf::apps::ticket::assign_method;
using amf::apps::ticket::DurableTicketApp;
using amf::apps::ticket::open_method;
using amf::apps::ticket::Ticket;
using amf::apps::ticket::TicketProxy;
using amf::apps::ticket::TicketServer;

constexpr std::size_t kCapacity = 64;
constexpr std::size_t kSyncEvery = 64;
// Per episode: kTickets opens + kTickets assigns, a log of 2 × kTickets
// records — a multiple of kSyncEvery, so the last group commit closes the
// log exactly.
constexpr std::size_t kTickets = 16384;
constexpr std::size_t kOpenersNames = 8;

struct Role {
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // assigns that broke FIFO order
  std::uint64_t allocs = 0;
  std::uint64_t slab_allocs = 0;  // the benchmark's own async slab nodes
  // Async assigns: calls handed to this thread's persona by other threads,
  // calls its progress() settled, progress() calls, and the ones that
  // settled nothing.
  std::uint64_t transferred = 0;
  std::uint64_t settled = 0;
  std::uint64_t progress_calls = 0;
  std::uint64_t empty_progress = 0;
  LatencyHistogram wait;
  Tracer tr;
};

std::vector<Ticket> make_tickets(std::uint64_t seed, std::uint64_t episode) {
  Rng rng(stream_seed(seed, episode));
  std::vector<Ticket> out(kTickets);
  for (std::size_t i = 0; i < kTickets; ++i) {
    out[i].id = episode * kTickets + i + 1;
    out[i].description = rng.text(8, 40);
    out[i].opened_by = "client-" + std::to_string(rng.below(kOpenersNames));
  }
  return out;
}

bool open_one(DurableTicketApp& app, const Ticket& t, Role& role,
              std::uint64_t call_id) {
  if constexpr (kTraced) {
    Scope root(role.tr, SpanName::kCall, call_id);
    // The context DurableTicketApp::open_ticket builds: principal and the
    // argument notes the persistence postaction serializes.
    auto setup = [&](amf::core::InvocationContext& ctx) {
      ctx.set_principal(amf::runtime::Principal::anonymous());
      ctx.set_note(amf::apps::ticket::kTicketIdNote, std::to_string(t.id));
      ctx.set_note(amf::apps::ticket::kTicketDescNote, t.description);
      ctx.set_note(amf::apps::ticket::kTicketByNote, t.opened_by);
    };
    const TracedOutcome out =
        traced_call(app.proxy(), open_method(), setup,
                    [&](TicketServer& s) { s.open(t); }, role.tr, call_id);
    role.wait.record(out.wait_ns);
    return out.ok;
  } else {
    (void)call_id;
    return app.open_ticket(t).ok();
  }
}

bool assign_one(DurableTicketApp& app, Ticket& got, Role& role,
                std::uint64_t call_id) {
  if constexpr (kTraced) {
    Scope root(role.tr, SpanName::kCall, call_id);
    auto setup = [](amf::core::InvocationContext& ctx) {
      ctx.set_principal(amf::runtime::Principal::anonymous());
    };
    const TracedOutcome out = traced_call(
        app.proxy(), assign_method(), setup,
        [&](TicketServer& s) { got = s.assign(); }, role.tr, call_id);
    role.wait.record(out.wait_ns);
    return out.ok;
  } else {
    (void)call_id;
    auto r = app.assign_ticket();
    if (r.ok()) got = std::move(*r.value);
    return r.ok();
  }
}

/// The assign body of the traced async call, with its span (it runs inside
/// AsyncCall::start when admitted at once, else inside progress()).
struct TracedAssignBody {
  Tracer* tr;
  std::uint64_t call_id;
  Ticket operator()(TicketServer& s) const {
    Scope span(*tr, SpanName::kBody, call_id);
    return s.assign();
  }
};

/// One async assign: start the call, then progress this thread's persona
/// until its future is ready (the parked call is transferred to it by the
/// opener's open).
bool assign_one_async(DurableTicketApp& app, Ticket& got, Role& role,
                      std::uint64_t call_id) {
  auto& persona = amf::concurrency::Persona::current();
  const std::uint64_t enq0 = persona.enqueued();
  auto settle = [&](auto& call) -> auto& {
    auto future = call.future();
    while (!future.ready()) {
      std::size_t n;
      {
        Scope span(role.tr, SpanName::kProgress, call_id);
        n = amf::concurrency::progress();
      }
      ++role.progress_calls;
      role.settled += n;
      if (n == 0) {
        ++role.empty_progress;
        std::this_thread::yield();
      }
    }
    role.transferred += persona.enqueued() - enq0;
    auto& res = future.value();
    if (res.ok()) got = std::move(*res.value);
    return res;
  };
  if constexpr (kTraced) {
    static thread_local std::deque<TicketProxy::AsyncCall<TracedAssignBody>>
        slab;
    Scope root(role.tr, SpanName::kCall, call_id);
    // The slab node is the benchmark's allocation, not the library's (the
    // frame's constructor allocates only when the thread's id block runs
    // out).
    const std::uint64_t a0 = thread_allocs();
    auto& call = slab.emplace_back(app.proxy(), assign_method(),
                                   TracedAssignBody{&role.tr, call_id});
    role.slab_allocs += thread_allocs() - a0;
    // The principal DurableTicketApp::assign_ticket_async sets.
    call.context().set_principal(amf::runtime::Principal::anonymous());
    {
      Scope span(role.tr, SpanName::kPark, call_id);
      call.start();
    }
    const auto& res = settle(call);  // valid until the slab is cleared
    role.wait.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(res.wait_time)
            .count());
    const bool ok = res.ok();
    slab.clear();
    return ok;
  } else {
    static thread_local std::deque<DurableTicketApp::AsyncAssignCall> slab;
    const bool ok = settle(app.assign_ticket_async(slab)).ok();
    slab.clear();
    return ok;
  }
}

struct EpisodeResult {
  bool opened = false;
  double setup_s = 0;
  double phase_s = 0;
  double recovery_s = 0;
  LatencyHistogram all, opens;  // call latencies
  std::uint64_t appended = 0;
  std::uint64_t replayed = 0;
  std::uint64_t log_bytes = 0;
  IoCounters io;  // deltas over the call phase
  ModeratorCounts counts;  // a fresh app's, so the episode's own
};

std::uint64_t log_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.ends_with(".log")) {
      total += e.file_size();
    }
  }
  return total;
}

DurableTicketApp::Options app_options() {
  DurableTicketApp::Options opts;
  opts.capacity = kCapacity;
  opts.wal.sync_every = kSyncEvery;
  return opts;
}

/// The opener and the assigner thread. They live for the whole run (so
/// thread stacks and allocator arenas do not change between episodes);
/// each episode releases both and waits until both made all their calls.
/// Each episode runs them on two different CPUs, the pair moving on by one
/// CPU per episode: left to the scheduler they sometimes share one CPU,
/// which hands every block and wake over within the CPU and reads 1.5x
/// the throughput of two CPUs, so runs would differ by placement.
class Workers {
 public:
  struct Job {
    DurableTicketApp* app = nullptr;
    const std::vector<Ticket>* tickets = nullptr;
    Role* roles[2] = {nullptr, nullptr};  // opener, assigner
    LatencyHistogram* lat[2] = {nullptr, nullptr};
    std::uint64_t id_base = 0;
    bool measured = false;
    bool async_assigns = false;
  };

  Workers() {
    for (int side = 0; side < 2; ++side) {
      threads_[side] = std::thread([this, side] { loop(side); });
    }
  }
  ~Workers() {
    stop_ = true;
    start_.arrive_and_wait();
    for (auto& t : threads_) t.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// Runs one episode's calls; returns its wall time in seconds.
  double run(const Job& job) {
    job_ = job;
    const std::int64_t t0 = now_ns();
    start_.arrive_and_wait();
    done_.arrive_and_wait();
    return seconds_between(t0, now_ns());
  }

 private:
  void loop(int side) {
    CpuRotation cpus(static_cast<std::size_t>(side));
    for (;;) {
      start_.arrive_and_wait();
      if (stop_) return;
      cpus.next();
      drive(side);
      done_.arrive_and_wait();
    }
  }

  void drive(int side) {
    const bool opens = side == 0;
    Role& role = *job_.roles[side];
    const std::vector<Ticket>& tickets = *job_.tickets;
    const std::uint64_t id_base =
        job_.id_base + (static_cast<std::uint64_t>(side + 1) << 62);
    const std::uint64_t allocs0 = thread_allocs();
    const std::uint64_t slab0 = role.slab_allocs;
    Ticket got;
    for (std::size_t i = 0; i < kTickets; ++i) {
      const std::int64_t c0 = now_ns();
      const bool ok =
          opens ? open_one(*job_.app, tickets[i], role, id_base + i)
          : job_.async_assigns
              ? assign_one_async(*job_.app, got, role, id_base + i)
              : assign_one(*job_.app, got, role, id_base + i);
      job_.lat[side]->record(now_ns() - c0);
      if (!ok) {
        ++role.failed;
        continue;
      }
      ++role.acked;
      if (!opens && !(got == tickets[i])) ++role.mismatches;
    }
    if (job_.measured) {
      role.allocs += thread_allocs() - allocs0 - (role.slab_allocs - slab0);
    }
  }

  Job job_;  // written by run() before `start_`, read after it
  bool stop_ = false;
  std::barrier<> start_{3};
  std::barrier<> done_{3};
  std::thread threads_[2];
};

EpisodeResult run_episode(const Options& o, bool async_assigns,
                          std::uint64_t episode, bool measured, Role& opener,
                          Role& assigner, Workers& workers, Tracer& main_tr,
                          Report& r) {
  EpisodeResult ep;
  const fs::path dir = fs::path(o.work_dir) / ("ep" + std::to_string(episode));
  fs::remove_all(dir);
  const std::vector<Ticket> tickets = make_tickets(o.seed, episode);

  std::int64_t t0 = now_ns();
  auto opened = DurableTicketApp::open(dir.string(), app_options());
  ep.setup_s = seconds_between(t0, now_ns());
  if (!opened.ok()) {
    r.check("durable.open_fresh_directory", false);
    return ep;
  }
  ep.opened = true;
  std::unique_ptr<DurableTicketApp> app = std::move(opened.value());

  const IoCounters io0 = read_proc_io();
  const std::uint64_t appended0 = app->persistence().appended();
  const std::uint64_t acked0 = opener.acked + assigner.acked;
  opener.tr.set_active(measured);
  assigner.tr.set_active(measured);

  LatencyHistogram open_lat, assign_lat;
  Workers::Job job;
  job.app = app.get();
  job.tickets = &tickets;
  job.roles[0] = &opener;
  job.roles[1] = &assigner;
  job.lat[0] = &open_lat;
  job.lat[1] = &assign_lat;
  job.id_base = (episode + 1) << 32;
  job.measured = measured;
  job.async_assigns = async_assigns;
  ep.phase_s = workers.run(job);
  ep.all = open_lat;
  ep.all.merge(assign_lat);
  ep.opens = open_lat;
  const IoCounters io1 = read_proc_io();
  ep.io = {io1.syscw - io0.syscw, io1.wchar - io0.wchar};
  ep.appended = app->persistence().appended() - appended0;
  ep.counts = moderator_counts(app->proxy().moderator(),
                               {open_method(), assign_method()});
  const std::uint64_t acked = opener.acked + assigner.acked - acked0;

  app.reset();
  ep.log_bytes = log_bytes(dir);

  // Recovery: reopen the directory and replay the fixed-length log.
  std::unique_ptr<DurableTicketApp> reopened;
  {
    Scope span(main_tr, SpanName::kReopen, episode);
    t0 = now_ns();
    auto again = DurableTicketApp::open(dir.string(), app_options());
    ep.recovery_s = seconds_between(t0, now_ns());
    if (again.ok()) reopened = std::move(again.value());
  }
  r.check("durable.reopen", reopened != nullptr);
  if (reopened) {
    ep.replayed = reopened->recovery_stats().replayed;
    // Ack oracle: everything acknowledged is recovered, nothing else.
    r.check("durable.recovered_opens_equal_acked",
            reopened->total_opened() == acked / 2 &&
                reopened->total_opened() == kTickets);
    r.check("durable.recovered_assigns_equal_acked",
            reopened->total_assigned() == reopened->total_opened());
    r.check("durable.recovered_pending_zero", reopened->pending() == 0);
    r.check("durable.replayed_equals_acked_commits", ep.replayed == acked);
  }
  reopened.reset();
  fs::remove_all(dir);
  return ep;
}

Report run_durable(const Options& o, bool async_assigns) {
  Report r;
  const std::int64_t run_t0 = now_ns();
  fs::create_directories(o.work_dir);
  Role opener, assigner;
  Tracer main_tr;
  main_tr.set_active(true);
  Workers workers;

  std::vector<EpisodeResult> measured;
  std::uint64_t episode = 0;
  bool broken = false;
  const std::int64_t warm_end =
      run_t0 + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  while (now_ns() < warm_end && !broken) {
    Role scratch_open, scratch_assign;
    broken = !run_episode(o, async_assigns, episode++, false, scratch_open,
                          scratch_assign, workers, main_tr, r)
                  .opened;
  }
  const std::int64_t w0 = now_ns();
  const std::int64_t w_end = w0 + static_cast<std::int64_t>(o.seconds * 1e9);
  while (!broken && (measured.empty() || now_ns() < w_end)) {
    measured.push_back(run_episode(o, async_assigns, episode++, true, opener,
                                   assigner, workers, main_tr, r));
    broken = !measured.back().opened;
  }
  fs::remove_all(o.work_dir);

  // --- output checks --------------------------------------------------------
  r.check("durable.assigns_fifo",
          assigner.mismatches == 0 && opener.mismatches == 0);
  r.check("durable.no_failed_calls", opener.failed + assigner.failed == 0);

  // --- metrics -------------------------------------------------------------
  std::vector<double> setup, recovery;
  EpisodeResult sum;
  for (const EpisodeResult& ep : measured) {
    setup.push_back(ep.setup_s);
    sum.phase_s += ep.phase_s;
    sum.all.merge(ep.all);
    sum.opens.merge(ep.opens);
    recovery.push_back(ep.recovery_s);
    sum.appended += ep.appended;
    sum.replayed += ep.replayed;
    sum.log_bytes += ep.log_bytes;
    sum.recovery_s += ep.recovery_s;
    sum.io.syscw += ep.io.syscw;
    sum.io.wchar += ep.io.wchar;
    sum.counts.admitted += ep.counts.admitted;
    sum.counts.block_events += ep.counts.block_events;
    sum.counts.fast += ep.counts.fast;
  }
  const std::uint64_t calls = 2 * kTickets * measured.size();
  r.attempted = calls;
  r.failed = opener.failed + assigner.failed;
  report_end_to_end(r, median(setup), calls, sum.phase_s, sum.all, sum.opens);
  r.note("episodes", static_cast<double>(measured.size()));
  r.note("recovery_s", median(recovery));
  r.note("log_records_per_episode", 2 * kTickets);
  r.note("wal_sync_every", kSyncEvery);

  if constexpr (kTraced) {
    Tracer merged;
    merged.merge(opener.tr);
    merged.merge(assigner.tr);
    LatencyHistogram wait = opener.wait;
    wait.merge(assigner.wait);
    report_layers(r, merged, calls, opener.allocs + assigner.allocs, wait);
    const double commits = static_cast<double>(sum.appended);
    r.metric("core.fast_admit_ratio",
             ratio(static_cast<double>(sum.counts.fast),
                   static_cast<double>(sum.counts.admitted)),
             "ratio");
    r.metric("core.block_events_per_kcall",
             ratio(1e3 * static_cast<double>(sum.counts.block_events),
                   static_cast<double>(calls)),
             "1/kcall");
    r.metric("storage.write_syscalls_per_commit",
             ratio(static_cast<double>(sum.io.syscw), commits), "count");
    r.metric("storage.write_bytes_per_commit",
             ratio(static_cast<double>(sum.io.wchar), commits), "B");
    r.metric("storage.log_bytes_per_commit",
             ratio(static_cast<double>(sum.log_bytes), commits), "B");
    r.metric("storage.replay_us_per_commit",
             ratio(sum.recovery_s * 1e6, static_cast<double>(sum.replayed)),
             "us");
    r.metric("storage.recovery_s", median(recovery), "s");
    if (async_assigns) {
      // Wake: the opener's calls over the parked assigns they handed to
      // the assigner's persona.
      r.metric("concurrency.wake_us_per_call",
               ratio(1e-3 * static_cast<double>(
                                opener.tr.aggregate(SpanName::kCall).total_ns),
                     static_cast<double>(assigner.transferred)),
               "us");
      r.metric("concurrency.progress_us_per_call",
               ratio(1e-3 * static_cast<double>(
                                merged.aggregate(SpanName::kProgress).total_ns),
                     static_cast<double>(assigner.settled)),
               "us");
      r.metric("concurrency.empty_progress_ratio",
               ratio(static_cast<double>(assigner.empty_progress),
                     static_cast<double>(assigner.progress_calls)),
               "ratio");
      // The caller-owned frame each call parks in (one at a time here).
      r.metric("concurrency.parked_bytes_per_call",
               static_cast<double>(sizeof(DurableTicketApp::AsyncAssignCall)),
               "B");
    }
    if (!o.trace_out.empty()) {
      r.check("trace.spans_written",
              write_spans(o.trace_out, {&opener.tr, &assigner.tr, &main_tr},
                          run_t0));
    }
  }
  return r;
}

}  // namespace

Report run_ticket_durable(const Options& o) { return run_durable(o, false); }

Report run_ticket_durable_async(const Options& o) {
  return run_durable(o, true);
}

}  // namespace perfbench
