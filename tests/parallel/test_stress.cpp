// Deterministic concurrency stress tests. These are the workload the TSan
// build (scripts/sanitize.sh tsan) runs to certify the thread pool, the
// cancellation protocol, the sharded metrics registry, and the parallel
// evaluators race-free; every assertion here is schedule-independent, so
// the suite also passes in plain builds.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/treecode.hpp"
#include "dist/distributions.hpp"
#include "engine/eval_session.hpp"
#include "engine/plan_cache.hpp"
#include "obs/json.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "obs/seq_ring.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace treecode {
namespace {

TEST(ThreadPoolStress, RepeatedStartStopWithWork) {
  // Construct, use, and destroy pools back to back: the destructor must
  // join cleanly with a task having just drained (shutdown ordering).
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(4);
    pool.run_on_all([&](unsigned) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 40u * 4u);
}

TEST(ThreadPoolStress, ImmediateDestructionWithoutWork) {
  // Workers may still be parking in their wait loop when stop is requested.
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(4);
  }
}

TEST(ThreadPoolStress, ManyGenerationsOnOnePool) {
  // The generation counter must keep workers and the waiter in lockstep
  // across many consecutive run_on_all calls.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int gen = 0; gen < 300; ++gen) {
    pool.run_on_all([&](unsigned) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 300u * 4u);
}

TEST(ThreadPoolStress, WorkerExceptionRethrownAndPoolReusable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_on_all([](unsigned t) {
                 if (t == 0) throw std::runtime_error("worker failure");
               }),
               std::runtime_error);
  // A failed generation must not wedge the pool.
  std::atomic<std::uint64_t> total{0};
  pool.run_on_all([&](unsigned) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), 4u);
}

TEST(ParallelForStress, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(pool, n, 7, [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForStress, PreCancelledTokenProcessesNothing) {
  // Workers check the token before claiming each block, so a token that is
  // already cancelled on entry deterministically claims zero blocks.
  ThreadPool pool(4);
  CancellationToken token;
  token.cancel();
  std::atomic<std::uint64_t> blocks{0};
  const WorkStats stats = parallel_for_blocked(
      pool, 5000, 1,
      [&](std::size_t, std::size_t, unsigned) -> std::uint64_t {
        blocks.fetch_add(1, std::memory_order_relaxed);
        return 1;
      },
      &token);
  EXPECT_EQ(blocks.load(), 0u);
  EXPECT_EQ(stats.total_work(), 0u);
}

TEST(ParallelForStress, MidSweepCancellationStopsEarlyAndTokenIsReusable) {
  ThreadPool pool(4);
  CancellationToken token;
  const std::size_t n = 20000;
  std::atomic<std::uint64_t> blocks{0};
  parallel_for_blocked(
      pool, n, 1,
      [&](std::size_t, std::size_t, unsigned) -> std::uint64_t {
        token.cancel();  // first executed block stops the sweep
        blocks.fetch_add(1, std::memory_order_relaxed);
        return 1;
      },
      &token);
  EXPECT_GE(blocks.load(), 1u);
  EXPECT_LT(blocks.load(), n);

  // reset() re-arms the token; the next sweep must run to completion.
  token.reset();
  std::atomic<std::uint64_t> full{0};
  parallel_for_blocked(
      pool, n, 64,
      [&](std::size_t b, std::size_t e, unsigned) -> std::uint64_t {
        full.fetch_add(e - b, std::memory_order_relaxed);
        return e - b;
      },
      &token);
  EXPECT_EQ(full.load(), n);
}

TEST(ParallelForStress, BodyExceptionCancelsSweepAndRethrows) {
  ThreadPool pool(4);
  const std::size_t n = 20000;
  std::atomic<std::uint64_t> blocks{0};
  EXPECT_THROW(
      parallel_for_blocked(pool, n, 1,
                           [&](std::size_t, std::size_t, unsigned) -> std::uint64_t {
                             blocks.fetch_add(1, std::memory_order_relaxed);
                             throw std::runtime_error("body failure");
                           }),
      std::runtime_error);
  EXPECT_LT(blocks.load(), n);
}

TEST(MetricsStress, ShardedCounterExactUnderContention) {
  obs::Counter& c = obs::registry().counter("stress.counter_exactness");
  c.reset();
  ThreadPool pool(8);
  constexpr std::uint64_t kPerThread = 20000;
  pool.run_on_all([&](unsigned) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
  });
  EXPECT_EQ(c.value(), 8u * kPerThread);
}

TEST(MetricsStress, HistogramExactUnderContention) {
  const std::vector<double> bounds = obs::integer_buckets(8);
  obs::Histogram& h = obs::registry().histogram("stress.histogram_exactness", bounds);
  h.reset();
  ThreadPool pool(8);
  constexpr std::uint64_t kPerThread = 5000;
  pool.run_on_all([&](unsigned t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(static_cast<double>(t % 9));
  });
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.total, 8u * kPerThread);
  std::uint64_t sum = 0;
  for (std::uint64_t count : snap.counts) sum += count;
  EXPECT_EQ(sum, snap.total);
}

TEST(MetricsStress, GaugeRecordMaxUnderContention) {
  obs::Gauge& g = obs::registry().gauge("stress.gauge_max");
  g.reset();
  ThreadPool pool(8);
  pool.run_on_all([&](unsigned t) {
    for (int i = 0; i < 2000; ++i) g.record_max(static_cast<double>(t * 1000 + i));
  });
  EXPECT_EQ(g.max(), 7 * 1000 + 1999);
}

// ---------------------------------------------------------------------------
// Parallel evaluators. Each target's accumulation is thread-private and
// blocks partition the target range, so results must be *bitwise* identical
// across thread counts and block sizes — any divergence (or TSan report)
// means a worker touched state it does not own.

class EvaluatorStress : public ::testing::Test {
 protected:
  EvaluatorStress()
      : tree_(dist::overlapped_gaussians(2000, 3, 99, 0.08,
                                         dist::ChargeModel::kMixedSign)) {}

  EvalConfig config(unsigned threads, std::size_t block_size = 64) const {
    EvalConfig cfg;
    cfg.mode = DegreeMode::kAdaptive;
    cfg.degree = 2;
    cfg.threads = threads;
    cfg.block_size = block_size;
    return cfg;
  }

  Tree tree_;
};

TEST_F(EvaluatorStress, BarnesHutBitwiseDeterministicAcrossSchedules) {
  EvalConfig serial = config(1);
  serial.track_error_bounds = true;
  const EvalResult reference = evaluate_potentials(tree_, serial, Method::kBarnesHut);
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const std::size_t block : {std::size_t{16}, std::size_t{64}}) {
      EvalConfig cfg = config(threads, block);
      cfg.track_error_bounds = true;
      const EvalResult r = evaluate_potentials(tree_, cfg, Method::kBarnesHut);
      EXPECT_EQ(r.potential, reference.potential)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(r.error_bound, reference.error_bound);
    }
  }
}

TEST_F(EvaluatorStress, FmmBitwiseDeterministicAcrossSchedules) {
  const EvalResult reference = evaluate_potentials(tree_, config(1), Method::kFmm);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const EvalResult r = evaluate_potentials(tree_, config(threads), Method::kFmm);
    EXPECT_EQ(r.potential, reference.potential) << "threads=" << threads;
  }
}

// The engine's replay must hold the same bitwise-determinism contract as
// the fresh evaluators: the plan partitions targets, each slot is written
// by exactly one worker, and the accumulation order per target is frozen
// in the plan — independent of thread count, block size, or which worker
// claims which block. Run under TSan these also certify the compile /
// refresh / replay phases race-free.
class EngineStress : public EvaluatorStress {
 protected:
  static std::vector<Vec3> targets() {
    std::vector<Vec3> t;
    t.reserve(400);
    for (int i = 0; i < 400; ++i) {
      const double s = static_cast<double>(i) / 400.0;
      t.push_back({1.2 * s - 0.1, 0.9 * s * s, 0.3 + 0.5 * s});
    }
    return t;
  }

  std::vector<double> charges(double scale) const {
    std::vector<double> q(tree_.source_size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i] = scale * (1.0 + 0.25 * static_cast<double>(i % 17));
    }
    return q;
  }
};

TEST_F(EngineStress, ReplayBitwiseDeterministicAcrossSchedules) {
  const std::vector<Vec3> pts = targets();
  engine::EvalSession serial(Tree(tree_), config(1));
  const EvalResult reference = serial.evaluate_at(pts);
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const std::size_t block : {std::size_t{16}, std::size_t{64}}) {
      engine::EvalSession session(Tree(tree_), config(threads, block));
      const EvalResult r = session.evaluate_at(pts);
      EXPECT_EQ(r.potential, reference.potential)
          << "threads=" << threads << " block=" << block;
      // Warm replay of the cached plan must reproduce itself exactly.
      const EvalResult again = session.evaluate_at(pts);
      EXPECT_EQ(again.potential, r.potential);
    }
  }
}

TEST_F(EngineStress, ReplayAfterChargeUpdateBitwiseAcrossSchedules) {
  const std::vector<Vec3> pts = targets();
  const std::vector<double> q = charges(0.75);
  engine::EvalSession serial(Tree(tree_), config(1));
  serial.update_charges(q);
  const EvalResult reference = serial.evaluate_at(pts);
  for (const unsigned threads : {2u, 4u, 8u}) {
    engine::EvalSession session(Tree(tree_), config(threads));
    (void)session.evaluate_at(pts);  // compile + first refresh at old charges
    session.update_charges(q);       // lazy partial re-refresh path
    const EvalResult r = session.evaluate_at(pts);
    EXPECT_EQ(r.potential, reference.potential) << "threads=" << threads;
  }
}

// The audit engine's determinism contract: counter-based sampling keys
// depend only on (seed, target, per-target acceptance ordinal), so the
// audited sample set — and every statistic derived from it — must be
// bitwise identical no matter how targets are partitioned across threads
// and blocks. Under TSan these also certify the per-thread reservoirs and
// the merge as race-free.
TEST_F(EvaluatorStress, AuditBitwiseDeterministicAcrossSchedules) {
  EvalConfig serial = config(1);
  serial.audit_samples = 24;
  serial.audit_seed = 11;
  const EvalResult reference = evaluate_potentials(tree_, serial, Method::kBarnesHut);
  ASSERT_EQ(reference.stats.audit_samples, 24u);
  ASSERT_EQ(reference.stats.audit_bound_violations, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const std::size_t block : {std::size_t{16}, std::size_t{64}}) {
      EvalConfig cfg = config(threads, block);
      cfg.audit_samples = 24;
      cfg.audit_seed = 11;
      const EvalResult r = evaluate_potentials(tree_, cfg, Method::kBarnesHut);
      EXPECT_EQ(r.potential, reference.potential)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(r.stats.audit_samples, reference.stats.audit_samples);
      EXPECT_EQ(r.stats.audit_bound_violations, reference.stats.audit_bound_violations);
      EXPECT_EQ(r.stats.audit_max_tightness, reference.stats.audit_max_tightness)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(r.stats.audit_mean_tightness, reference.stats.audit_mean_tightness)
          << "threads=" << threads << " block=" << block;
    }
  }
}

TEST_F(EngineStress, ReplayAuditBitwiseDeterministicAcrossSchedules) {
  const std::vector<Vec3> pts = targets();
  EvalConfig serial = config(1);
  serial.audit_samples = 16;
  serial.audit_seed = 5;
  engine::EvalSession ref_session(Tree(tree_), serial);
  const EvalResult reference = ref_session.evaluate_at(pts);
  ASSERT_GT(reference.stats.audit_samples, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const std::size_t block : {std::size_t{16}, std::size_t{64}}) {
      EvalConfig cfg = config(threads, block);
      cfg.audit_samples = 16;
      cfg.audit_seed = 5;
      engine::EvalSession session(Tree(tree_), cfg);
      const EvalResult r = session.evaluate_at(pts);
      EXPECT_EQ(r.potential, reference.potential)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(r.stats.audit_samples, reference.stats.audit_samples);
      EXPECT_EQ(r.stats.audit_max_tightness, reference.stats.audit_max_tightness)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(r.stats.audit_mean_tightness, reference.stats.audit_mean_tightness)
          << "threads=" << threads << " block=" << block;
    }
  }
}

TEST(SeqRingStress, ConcurrentWritersAndSnapshotReaders) {
  // The ring under the request-log and span/event streams, on its own:
  // 6 writers push while 2 readers snapshot, and every slot is
  // overwritten ~100 times. Every record carries a relation across its
  // words (b == a*3+1, fill == a); a torn slot that passed the stamp check
  // would break it. TSan certifies the slots race-free.
  struct Record {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::array<std::uint64_t, 4> fill{};
  };
  constexpr std::size_t kSlots = 1024;
  constexpr unsigned kWriters = 6;
  constexpr std::uint64_t kPerWriter = 20000;
  auto ring = std::make_unique<obs::SeqRing<Record, kSlots>>();
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::jthread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = ring->snapshot();
        for (std::size_t j = 1; j < snap.size(); ++j) {
          ASSERT_LT(snap[j - 1].first, snap[j].first);
        }
        for (const auto& [seq, r] : snap) {
          ASSERT_EQ(r.b, r.a * 3 + 1) << "seq " << seq;
          for (const std::uint64_t f : r.fill) ASSERT_EQ(f, r.a) << "seq " << seq;
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.run_on_all([&](unsigned t) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      Record r;
      r.a = static_cast<std::uint64_t>(t) * kPerWriter + i;
      r.b = r.a * 3 + 1;
      r.fill.fill(r.a);
      ring->push(r);
    }
  });
  done.store(true, std::memory_order_release);
  readers.clear();  // join
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(ring->pushed(), kWriters * kPerWriter);
  // Quiescent: every slot is whole. Which seqs survive is not fixed: a
  // writer that finds its slot busy or newer drops its record.
  const auto final_snap = ring->snapshot();
  EXPECT_EQ(final_snap.size(), kSlots);
  for (const auto& [seq, r] : final_snap) {
    EXPECT_LT(seq, ring->pushed());
    EXPECT_EQ(r.b, r.a * 3 + 1);
  }
}

TEST(RecorderStress, ConcurrentRecordersAndSnapshotReaders) {
  // 6 threads record tracer events while 2 threads repeatedly snapshot
  // the rings: TSan certifies the seqlock slots race-free, and every
  // snapshot must be internally consistent (start-ordered, every record a
  // whole zero-duration event whose value names its writer) even
  // mid-overwrite.
  namespace rt = obs::reqtrace;
  rt::reset();
  rt::enable();
  const auto recorded = [] {
    return obs::registry().counter(obs::metric::kTraceRecordedSpans).value();
  };
  const std::uint64_t recorded_before = recorded();
  constexpr int kWriters = 6;
  constexpr std::uint64_t kPerWriter = 30000;
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::jthread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<rt::SpanRecord> events = rt::spans();
        for (std::size_t j = 1; j < events.size(); ++j) {
          ASSERT_LE(events[j - 1].start_ns, events[j].start_ns);
        }
        for (const rt::SpanRecord& e : events) {
          ASSERT_EQ(e.kind, rt::SpanKind::kEvent);
          ASSERT_STREQ(e.name, "stress.tick");
          ASSERT_EQ(e.start_ns, e.end_ns);
          ASSERT_LT(e.value, kWriters * 1e6);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.run_on_all([&](unsigned t) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      rt::record_event("stress.tick", static_cast<double>(t) * 1e6 + static_cast<double>(i));
    }
  });
  done.store(true, std::memory_order_release);
  readers.clear();  // join
  EXPECT_EQ(recorded() - recorded_before, kWriters * kPerWriter);
  EXPECT_GT(snapshots.load(), 0u);
  // Quiescent: each writer's ring is full of whole events.
  EXPECT_EQ(rt::spans().size(), kWriters * rt::kSpanRingCapacity);
  rt::reset();
}

TEST(TelemetryStress, ConcurrentEmittersWithSinkAndReaders) {
  // Same seqlock contract as RecorderStress, for the tracer's request log
  // — with the JSONL sink armed so the mutex-serialized append path runs
  // concurrently too. Writers stamp a per-record relation
  // (targets == plan_key * 3 + 1); any torn slot a reader surfaced would
  // break it. No record may be lost: logged_count and the sink are exact.
  namespace rt = obs::reqtrace;
  rt::reset();
  const std::string sink = ::testing::TempDir() + "/telemetry_stress.jsonl";
  std::remove(sink.c_str());
  rt::enable();
  rt::set_sink(sink);
  constexpr int kWriters = 6;
  constexpr std::uint64_t kPerWriter = 4000;
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::jthread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<rt::RequestRecord> records = rt::records();
        for (std::size_t j = 1; j < records.size(); ++j) {
          ASSERT_LT(records[j - 1].seq, records[j].seq);
        }
        for (const rt::RequestRecord& r : records) {
          ASSERT_EQ(r.targets, r.plan_key * 3 + 1);
          ASSERT_NE(r.outcome_name, nullptr);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.run_on_all([&](unsigned t) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      rt::RequestRecord r;
      r.api = "evaluate_plan";
      r.plan_key = static_cast<std::uint64_t>(t) * kPerWriter + i;
      r.targets = r.plan_key * 3 + 1;
      r.wall_seconds = 1e-6 * static_cast<double>(i);
      rt::log_request(r);
    }
  });
  done.store(true, std::memory_order_release);
  readers.clear();  // join
  EXPECT_EQ(rt::logged_count(), kWriters * kPerWriter);
  EXPECT_GT(snapshots.load(), 0u);
  const std::vector<rt::RequestRecord> final_records = rt::records();
  EXPECT_EQ(final_records.size(), rt::kRequestRingCapacity);
  for (const rt::RequestRecord& r : final_records) {
    EXPECT_EQ(r.targets, r.plan_key * 3 + 1);
  }
  rt::close_sink();
  // Every record reached the sink whole: the mutex serialized appends, so
  // each line parses and satisfies the same relation (no torn or
  // interleaved writes), and none is missing.
  std::ifstream in(sink);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t parsed = 0;
  while (std::getline(in, line)) {
    const obs::Json j = obs::Json::parse(line);
    const std::uint64_t key =
        std::stoull(j.at("plan_key").as_string(), nullptr, 16);
    ASSERT_EQ(static_cast<std::uint64_t>(j.at("targets").as_int()), key * 3 + 1);
    ++parsed;
  }
  EXPECT_EQ(parsed, kWriters * kPerWriter);
  rt::reset();
  std::remove(sink.c_str());
}

TEST(ReqTraceStress, ConcurrentSpanWritersFinishersAndReaders) {
  // Same seqlock contract for the tracer's span rings: 6 writer threads
  // hammer record_span and, every 16th span, record_timeline_span (with
  // periodic finish_request calls so the sampler mutex runs concurrently
  // too) while 2 readers snapshot retained() and spans(). Writers stamp a
  // per-span relation (request: end == start + 1, parent == span_id ^ mask;
  // timeline: end == start + 2); a torn slot surfacing in a snapshot would
  // break it — TSan certifies the slots race-free, the relation certifies
  // the torn-read filter works even in plain builds.
  namespace rt = obs::reqtrace;
  rt::reset();
  rt::SamplerConfig trace_config;
  trace_config.seed = 9;
  trace_config.sample_rate = 0.0;
  rt::enable(trace_config);
  // Pre-retained traces the writers append spans into.
  std::array<rt::TraceContext, 4> hot{};
  for (rt::TraceContext& ctx : hot) {
    ctx = rt::mint_request();
    rt::finish_request(ctx, rt::RequestRecord{.ok = false});
  }
  constexpr unsigned kWriters = 6;
  constexpr std::uint64_t kPerWriter = 20000;
  constexpr std::uint64_t kParentMask = 0x5a5a5a5a5a5a5a5aULL;
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::jthread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (const rt::RetainedTrace& trace : rt::retained()) {
          for (const rt::SpanRecord& span : trace.spans) {
            if (span.kind != rt::SpanKind::kPhase) continue;
            ASSERT_EQ(span.end_ns, span.start_ns + 1);
            ASSERT_EQ(span.parent_span_id, span.span_id ^ kParentMask);
          }
        }
        for (const rt::SpanRecord& span : rt::spans()) {
          if (!span.timeline()) continue;
          ASSERT_EQ(span.end_ns, span.start_ns + 2);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.run_on_all([&](unsigned t) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      rt::TraceContext ctx = hot[(t + i) % hot.size()];
      ctx.span_id = (t + 1) * 1000000000ULL + i + 1;
      ctx.parent_span_id = ctx.span_id ^ kParentMask;
      rt::record_span(ctx, "stress.span", rt::SpanKind::kPhase,
                      static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(i) + 1);
      if ((i & 15) == 0) {
        rt::record_timeline_span("stress.timeline", static_cast<std::int64_t>(i),
                                 static_cast<std::int64_t>(i) + 2);
      }
      if ((i & 2047) == 0) {
        rt::finish_request(rt::mint_request(), rt::RequestRecord{.ok = false});
      }
    }
  });
  done.store(true, std::memory_order_release);
  readers.clear();  // join
  EXPECT_GT(snapshots.load(), 0u);
  // The final quiescent snapshot obeys the same relation.
  for (const rt::RetainedTrace& trace : rt::retained()) {
    for (const rt::SpanRecord& span : trace.spans) {
      if (span.kind != rt::SpanKind::kPhase) continue;
      EXPECT_EQ(span.end_ns, span.start_ns + 1);
      EXPECT_EQ(span.parent_span_id, span.span_id ^ kParentMask);
    }
  }
  std::size_t timeline_spans = 0;
  for (const rt::SpanRecord& span : rt::spans()) {
    if (!span.timeline()) continue;
    EXPECT_EQ(span.end_ns, span.start_ns + 2);
    ++timeline_spans;
  }
  EXPECT_GT(timeline_spans, 0u);
  rt::reset();
}

TEST(PlanCacheStress, ConcurrentFindInsertClearUnderEvictionPressure) {
  // The cache is the one engine structure shared across threads without the
  // session's serialization (a diagnostics thread may clear() while a serve
  // thread compiles). Hammer find/insert/clear from several threads with a
  // byte capacity small enough that inserts constantly evict; TSan certifies
  // the mutex covers every ledger update, and the byte ledger must return to
  // a consistent state afterwards.
  engine::PlanCache cache(4, 6000);
  auto make = [](std::uint64_t key) {
    auto plan = std::make_shared<engine::EvalPlan>();
    plan->key = key;
    plan->targets = {{static_cast<double>(key), 0.0, 0.0}};
    plan->self = false;
    plan->entries.assign(200 + static_cast<std::size_t>(key % 7) * 50, 0);
    return plan;
  };
  constexpr int kThreads = 6;
  constexpr std::uint64_t kOpsPerThread = 4000;
  std::atomic<std::uint64_t> verified_hits{0};
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t key = (static_cast<std::uint64_t>(t) * 31 + i) % 11;
          switch (i % 4) {
            case 0:
            case 1: {
              const auto plan = make(key);
              if (const auto hit = cache.find(key, plan->targets, false)) {
                // A verified hit must be exactly the plan inserted under
                // this key: same target, never a torn or foreign plan.
                ASSERT_EQ(hit->key, key);
                ASSERT_EQ(hit->targets[0].x, static_cast<double>(key));
                verified_hits.fetch_add(1, std::memory_order_relaxed);
              }
              break;
            }
            case 2:
              cache.insert(make(key));
              break;
            default:
              if (i % 512 == 3) cache.clear();
              break;
          }
        }
      });
    }
  }
  EXPECT_GT(verified_hits.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_LE(cache.bytes(), cache.byte_capacity());
  // The ledger reconciles: a final clear leaves exactly nothing accounted.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST_F(EvaluatorStress, ConcurrentEvaluationsOnSharedTree) {
  // The Tree is immutable after build; two parallel evaluations reading it
  // concurrently (each with its own pool) must not interfere.
  const EvalResult reference = evaluate_potentials(tree_, config(1), Method::kBarnesHut);
  std::vector<EvalResult> results(4);
  {
    std::vector<std::jthread> threads;
    threads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back([&, i] {
        results[i] = evaluate_potentials(tree_, config(2), Method::kBarnesHut);
      });
    }
  }
  for (const EvalResult& r : results) {
    EXPECT_EQ(r.potential, reference.potential);
  }
}

}  // namespace
}  // namespace treecode
