#include "engine/eval_session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "analysis/invariants.hpp"
#include "core/barnes_hut.hpp"
#include "core/interaction_walk.hpp"
#include "multipole/error_bounds.hpp"
#include "multipole/operators.hpp"
#include "obs/audit.hpp"
#include "obs/instrument.hpp"
#include "obs/metric_names.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "util/timer.hpp"
#include "obs/spans.hpp"
#include "util/fault_inject.hpp"
#include "util/validate.hpp"

namespace treecode::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
inline void fnv_mix_value(std::uint64_t& h, const T& value) noexcept {
  fnv_mix(h, &value, sizeof(T));
}

/// Hash of the target set plus every EvalConfig field that influences a
/// traversal decision (MAC acceptance, degree law, budget demotion) or the
/// shape of the compiled schedule (bounds, gradients). Fields that only
/// affect execution (threads, block_size, memory budget, deadline) are
/// deliberately excluded so the same plan replays at any parallelism.
std::uint64_t plan_key(std::span<const Vec3> targets, bool self, const EvalConfig& c) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_value(h, self);
  fnv_mix_value(h, c.alpha);
  fnv_mix_value(h, c.degree);
  fnv_mix_value(h, c.max_degree);
  fnv_mix_value(h, static_cast<int>(c.mode));
  fnv_mix_value(h, static_cast<int>(c.law));
  fnv_mix_value(h, static_cast<int>(c.reference));
  fnv_mix_value(h, c.reference_charge);
  fnv_mix_value(h, c.error_budget);
  fnv_mix_value(h, c.enforce_budget);
  fnv_mix_value(h, c.track_error_bounds);
  fnv_mix_value(h, c.compute_gradient);
  fnv_mix_value(h, c.softening);
  if (!targets.empty()) fnv_mix(h, targets.data(), targets.size() * sizeof(Vec3));
  return h;
}

/// Construct an Error, counting it and arming the flight recorder — every
/// engine failure leaves a metrics + recorder trail regardless of whether
/// the ladder absorbs it or the caller sees it.
Error engine_error(ErrorCode code, std::string message) {
  obs::registry().counter(obs::metric::kEngineErrors).add(1);
  obs::recorder::record(obs::recorder::Category::kCustom, error_code_name(code), 0.0);
  obs::recorder::trigger(error_code_name(code));
  return Error{code, std::move(message)};
}

/// Errors the degradation ladder absorbs by stepping down a rung; every
/// other code (bad input, NaN, deadline) propagates — no rung fixes those.
bool memory_class(ErrorCode code) noexcept {
  return code == ErrorCode::kMemoryBudget || code == ErrorCode::kFaultInjected;
}

ErrorCode denial_code(const ResourceGovernor& governor) noexcept {
  return governor.last_denial_was_fault() ? ErrorCode::kFaultInjected
                                          : ErrorCode::kMemoryBudget;
}

/// Arm the session deadline for the dynamic extent of one public
/// evaluation, unless an outer scope already did (evaluate_at -> evaluate
/// must not re-arm and extend the window).
class DeadlineScope {
 public:
  DeadlineScope(ResourceGovernor& governor, double seconds)
      : governor_(governor), armed_here_(seconds > 0.0 && !governor.deadline_armed()) {
    if (armed_here_) governor_.arm_deadline(seconds);
  }
  ~DeadlineScope() {
    if (armed_here_) governor_.disarm_deadline();
  }
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  ResourceGovernor& governor_;
  bool armed_here_;
};

static_assert(static_cast<int>(ServeRung::kTraversal) == obs::reqtrace::kTraversalRung);

/// Fill one RequestRecord at a public entry point's exit — the per-request
/// tuple (plan, rung, outcome, wall, bytes, deadline slack, audit
/// tightness) — and finish the request's trace with it (obs/reqtrace.hpp).
/// One relaxed load and a branch while tracing is disabled.
/// `error` is null on success; the outcome is then the served stats'
/// (kDeadline for a partial result) or kOk.
void emit_request(const char* api, std::uint64_t key, double wall, const Error* error,
                  const EvalStats* stats, const EvalSession& session,
                  obs::reqtrace::RequestScope& scope, std::uint32_t batch_width = 0) {
  // Counted before the tracing gate: engine.requests is the SLO error-rate
  // denominator (obs/slo.cpp) and must cover every entry-point call, traced
  // or not.
  obs::registry().counter(obs::metric::kEngineRequests).add(1);
  if (!scope.context().valid()) return;
  const ErrorCode code = error != nullptr ? error->code
                         : stats != nullptr ? stats->outcome
                                            : ErrorCode::kOk;
  obs::reqtrace::RequestRecord r;
  r.api = api;
  r.plan_key = key;
  if (stats != nullptr) {
    r.rung = static_cast<std::int8_t>(stats->served_rung);
    r.targets = stats->targets_served;
    r.audit_max_tightness = stats->audit_max_tightness;
  }
  r.ok = error == nullptr;
  r.outcome = static_cast<std::uint8_t>(code);
  r.outcome_name = error_code_name(code);
  r.deadline_missed = code == ErrorCode::kDeadline;
  r.wall_seconds = wall;
  r.plan_bytes = session.cache().bytes();
  const double deadline = session.config().deadline_seconds;
  r.deadline_slack_seconds =
      deadline > 0.0 ? deadline - wall : std::numeric_limits<double>::quiet_NaN();
  r.threads = session.pool().width();
  r.batch_width = batch_width;
  scope.finish(r);
}

std::uint64_t next_session_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// A result of `out_n` zeroed slots carrying `stats` (a plan's schedule
/// statistics, which hold no timings), served at `rung` for `targets`.
EvalResult blank_result(const EvalStats& stats, ServeRung rung, std::size_t targets,
                        std::size_t out_n, const EvalConfig& config) {
  EvalResult r;
  r.stats = stats;
  r.stats.served_rung = rung;
  r.stats.targets_served = static_cast<std::uint64_t>(targets);
  r.potential.assign(out_n, 0.0);
  if (config.compute_gradient) r.gradient.assign(out_n, Vec3{});
  if (config.track_error_bounds || config.enforce_budget) r.error_bound.assign(out_n, 0.0);
  return r;
}

/// Which per-target loop a sweep runs: it names the sweep in error
/// messages and picks its trace spans.
enum class SweepKind { kReplay, kBatch, kDirect };

/// Direct summation and replay trace as different phases.
auto sweep_timer(SweepKind kind, double* seconds) -> ScopedTimer {
  return kind == SweepKind::kDirect ? ScopedTimer(obs::span::kEngineDirect, seconds)
                                    : ScopedTimer(obs::span::kEngineReplay, seconds);
}

/// The per-target loop every serving rung shares, parallel over target
/// blocks. Between blocks it polls the deadline (expiry cancels the rest of
/// the sweep) and the slow-worker fault site. `target(i, t)` fills target
/// i's slots in `rows` and returns its cost; the first non-finite potential
/// cancels the sweep and becomes the error. A deadline_partial expiry zeroes
/// the unserved targets. Success scatters the rows into `results`.
template <typename Target>
Expected<void> sweep(ThreadPool& pool, ResourceGovernor& governor, const EvalConfig& config,
                     SweepKind kind, TargetRows& rows, const Tree& tree, bool self,
                     std::span<EvalResult> results, Target&& target) {
  const char* what = kind == SweepKind::kDirect  ? "direct fallback"
                     : kind == SweepKind::kBatch ? "batch replay"
                                                 : "replay";
  const std::size_t n = rows.n;
  const std::size_t k = results.size();
  double seconds = 0.0;
  WorkStats work;
  CancellationToken cancel;
  std::atomic<bool> deadline_hit{false};
  // Packed (target * k + column) of the first non-finite potential seen.
  std::atomic<std::int64_t> nonfinite_at{-1};
  const bool deadline_active = governor.deadline_armed();
  std::vector<char> done(deadline_active ? n : 0, 0);
  try {
    const ScopedTimer phase_timer = sweep_timer(kind, &seconds);
    work = parallel_for_blocked(
        pool, n, config.block_size,
        [&](std::size_t block_begin, std::size_t block_end, unsigned t) -> std::uint64_t {
          if (deadline_active && governor.deadline_expired()) {
            deadline_hit.store(true, std::memory_order_relaxed);
            cancel.cancel();
            return 0;
          }
          if constexpr (fault::kEnabled) {
            if (fault::fire(fault::Site::kSlowWorker)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
          }
          std::uint64_t cost = 0;
          for (std::size_t i = block_begin; i < block_end; ++i) {
            const std::uint64_t target_cost = target(i, t);
            for (std::size_t c = 0; c < k; ++c) {
              if (std::isfinite(rows.phi[c * n + i])) continue;
              obs::recorder::record(obs::recorder::Category::kNonFinite,
                                    "engine.nonfinite_potential", static_cast<double>(i));
              std::int64_t expected_idx = -1;
              nonfinite_at.compare_exchange_strong(expected_idx,
                                                   static_cast<std::int64_t>(i * k + c),
                                                   std::memory_order_relaxed);
              cancel.cancel();
              return cost;
            }
            if (deadline_active) done[i] = 1;
            cost += target_cost;
          }
          return cost;
        },
        &cancel,
        kind == SweepKind::kDirect ? obs::span::kEngineDirectWorker
                                   : obs::span::kEngineReplayWorker);
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: ") + what + " worker exception: " + e.what());
  }

  std::uint64_t served = n;
  const std::int64_t bad = nonfinite_at.load(std::memory_order_relaxed);
  if (bad >= 0) {
    const auto width = static_cast<std::int64_t>(k);
    std::string message = "EvalSession: non-finite potential at evaluation point " +
                          std::to_string(bad / width);
    if (kind == SweepKind::kBatch) message += " in batch column " + std::to_string(bad % width);
    return engine_error(ErrorCode::kNonFinite, message);
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    obs::registry().counter(obs::metric::kEngineDeadlineExpirations).add(1);
    if (!config.deadline_partial) {
      return engine_error(ErrorCode::kDeadline,
                          std::string("EvalSession: deadline expired during ") + what);
    }
    served = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i] != 0) {
        ++served;
        continue;
      }
      for (std::size_t c = 0; c < k; ++c) rows.phi[c * n + i] = 0.0;
      if (!rows.grad.empty()) rows.grad[i] = Vec3{};
      if (!rows.bound.empty()) rows.bound[i] = 0.0;
    }
  }
  for (EvalResult& r : results) {
    r.stats.eval_seconds = seconds;
    r.stats.work = work;
    r.stats.targets_served = served;
    if (served != n) r.stats.outcome = ErrorCode::kDeadline;
  }
  rows.scatter(tree, self, results);
  return {};
}

/// Columns per walk of a target's entry stream; each column's accumulator
/// stays in a register.
constexpr std::size_t kMaxWidth = 8;

/// Call f(std::integral_constant<std::size_t, K>{}) with K == width, for
/// 1 <= width <= kMaxWidth: the replay kernel's column-block width is a
/// compile-time constant picked from the request's column count.
template <std::size_t K = 1, typename F>
void with_width(std::size_t width, F&& f) {
  if constexpr (K < kMaxWidth) {
    if (width != K) {
      with_width<K + 1>(width, std::forward<F>(f));
      return;
    }
  }
  f(std::integral_constant<std::size_t, K>{});
}

}  // namespace

EvalSession::EvalSession(Tree tree, const EvalConfig& config, const Options& options)
    : tree_(std::move(tree)),
      config_(config),
      degrees_(assign_degrees(tree_, config_)),  // validates config
      pool_(config.threads),
      governor_(config.memory_budget_bytes),
      sorted_charges_(tree_.charges().begin(), tree_.charges().end()),
      multipoles_(tree_.nodes().size()),
      node_epoch_(tree_.nodes().size(), 0),
      cache_(options.plan_cache_capacity, options.plan_cache_byte_capacity),
      id_(next_session_id()) {}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile(
    std::span<const Vec3> targets) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineCompile);
  Expected<std::shared_ptr<const EvalPlan>> plan =
      try_compile_impl(targets, /*self=*/false);
  emit_request("compile", plan.ok() ? plan.value()->key : 0,
               timer.seconds(), plan.ok() ? nullptr : &plan.error(), nullptr, *this, rscope);
  return plan;
}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile_self() {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineCompileSelf);
  Expected<std::shared_ptr<const EvalPlan>> plan =
      try_compile_impl(tree_.positions(), /*self=*/true);
  emit_request("compile_self", plan.ok() ? plan.value()->key : 0,
               timer.seconds(), plan.ok() ? nullptr : &plan.error(), nullptr, *this, rscope);
  return plan;
}

Expected<void> EvalSession::try_update_charges(std::span<const double> charges) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineUpdateCharges);
  Expected<void> result = try_update_charges_impl(charges, /*sorted=*/false);
  emit_request("update_charges", 0, timer.seconds(),
               result.ok() ? nullptr : &result.error(), nullptr, *this, rscope);
  return result;
}

Expected<void> EvalSession::try_update_charges_impl(std::span<const double> charges,
                                                    bool sorted) {
  const char* what = sorted ? "sorted charge vector" : "charge vector";
  if (charges.size() != (sorted ? tree_.num_particles() : tree_.source_size())) {
    return engine_error(ErrorCode::kInvalidArgument,
                        std::string("EvalSession: ") + what + " size mismatch");
  }
  if (!all_finite(charges)) {
    return engine_error(ErrorCode::kNonFinite,
                        std::string("EvalSession: ") + what + " has non-finite values");
  }
  const auto& orig = tree_.original_index();
  for (std::size_t si = 0; si < sorted_charges_.size(); ++si) {
    sorted_charges_[si] = charges[sorted ? si : orig[si]];
  }
  if (fault::fire(fault::Site::kNanCharge) && !sorted_charges_.empty()) {
    // Simulate a corruption that slipped past input validation; the replay's
    // non-finite detector must catch it downstream (kNonFinite).
    sorted_charges_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  ++charge_epoch_;
  return {};
}

Expected<void> EvalSession::try_update_charges_sorted(std::span<const double> charges) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineUpdateChargesSorted);
  Expected<void> result = try_update_charges_impl(charges, /*sorted=*/true);
  emit_request("update_charges_sorted", 0, timer.seconds(),
               result.ok() ? nullptr : &result.error(), nullptr, *this, rscope);
  return result;
}

Expected<std::shared_ptr<const EvalPlan>> EvalSession::try_compile_impl(
    std::span<const Vec3> targets, bool self) {
  // Self targets are the tree's own particles, validated at tree build;
  // external targets get the same policy treatment as source particles.
  ValidationReport report;
  const ValidationPolicy policy = tree_.config().validation;
  if (!self) {
    report = validate_targets(targets);
    // Under kThrow policy enforce_validation throws ValidationError;
    // convert at this edge so the entry point keeps its typed-Expected
    // contract (kWarn/kSanitize pass straight through).
    try {
      enforce_validation(report, policy, "EvalSession::compile");
    } catch (const ValidationError&) {
      return engine_error(ErrorCode::kNonFinite,
                          "EvalSession::compile: " + report.summary());
    }
  }

  const std::uint64_t key = plan_key(targets, self, config_);
  obs::Registry& reg = obs::registry();
  if (auto hit = cache_.find(key, targets, self)) {
    reg.counter(obs::metric::kEnginePlanCacheHits).add(1);
    return hit;
  }
  reg.counter(obs::metric::kEnginePlanCacheMisses).add(1);

  auto plan = std::make_shared<EvalPlan>();
  plan->targets.assign(targets.begin(), targets.end());
  plan->self = self;
  plan->key = key;
  plan->session = id_;
  for (const std::size_t idx : report.non_finite_positions) {
    plan->skipped_targets.push_back(static_cast<std::uint32_t>(idx));
  }

  const ScopedTimer phase_timer(obs::span::kEngineCompile, &plan->compile_seconds);

  const std::size_t n = targets.size();
  const auto& nodes = tree_.nodes();
  const bool want_bounds = config_.track_error_bounds || config_.enforce_budget;

  // The shared alpha-MAC walk, recording each decision as an entry instead
  // of evaluating it: a replay of the entries makes the fresh walk's kernel
  // calls in the fresh walk's order.
  std::vector<std::vector<std::int32_t>> per_entries(n);
  std::vector<std::vector<double>> per_bounds(want_bounds ? n : 0);
  plan->target_cost.assign(n, 0);
  InteractionWalk walk(tree_,
                       WalkRules{.alpha = config_.alpha,
                                 .degree = degrees_.degree,
                                 .bounds = want_bounds,
                                 .enforce = config_.enforce_budget,
                                 .budget = config_.error_budget},
                       pool_.width());

  // The runtime rethrows a worker's exception on this thread (a walk can
  // only hit bad_alloc growing its per-target entry vectors); each fan-out
  // edge converts it to a typed error.
  if (n > 0 && tree_.num_particles() > 0) try {
    walk.sweep(pool_, n, config_.block_size, obs::span::kEngineCompileWorker,
               [&](std::size_t i, unsigned t) {
                 if (!all_finite(targets.subspan(i, 1))) return;  // a skipped target
                 std::vector<std::int32_t>& ent = per_entries[i];
                 walk.target(
                     targets[i], t,
                     [&](int ni, const TreeNode&, double, double thm1) {
                       ent.push_back(EvalPlan::make_entry(ni, /*p2p=*/false));
                       if (want_bounds) per_bounds[i].push_back(thm1);
                       const auto terms = static_cast<std::uint64_t>(
                           degrees_.degree[static_cast<std::size_t>(ni)] + 1);
                       plan->target_cost[i] += terms * terms;
                     },
                     [&](int ni, const TreeNode& node) {
                       ent.push_back(EvalPlan::make_entry(ni, /*p2p=*/true));
                       if (want_bounds) per_bounds[i].push_back(0.0);
                       plan->target_cost[i] += node.count();
                     });
               });
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession::compile: worker exception: ") +
                            e.what());
  }

  // Serial flatten into the plan's replay layout.
  plan->offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    plan->offsets[i + 1] = plan->offsets[i] + per_entries[i].size();
  }
  const std::uint64_t total = plan->offsets[n];
  plan->entries.reserve(total);
  if (want_bounds) plan->entry_bounds.reserve(total);
  std::vector<char> referenced(nodes.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    plan->entries.insert(plan->entries.end(), per_entries[i].begin(), per_entries[i].end());
    if (want_bounds) {
      plan->entry_bounds.insert(plan->entry_bounds.end(), per_bounds[i].begin(),
                                per_bounds[i].end());
    }
    for (const std::int32_t e : per_entries[i]) {
      if (!EvalPlan::is_p2p(e)) referenced[static_cast<std::size_t>(EvalPlan::node_of(e))] = 1;
    }
  }
  for (std::size_t nu = 0; nu < referenced.size(); ++nu) {
    if (referenced[nu] != 0) plan->m2p_nodes.push_back(static_cast<std::int32_t>(nu));
  }

  // Governed commit of the plan. A denial discards the compiled schedule;
  // the ladder serves rung 1/2.
  // The RAII reservation travels with cache residency: released on
  // eviction, replacement, clear — or right here if anything below throws
  // before the insert.
  const std::size_t plan_bytes = plan->memory_bytes();
  ResourceGovernor::Reservation plan_reservation =
      governor_.reserve(plan_bytes, "engine.plan");
  if (!plan_reservation) {
    reg.counter(obs::metric::kEnginePlanDenied).add(1);
    return engine_error(denial_code(governor_),
                        "EvalSession::compile: plan storage denied (" +
                            std::to_string(plan_bytes) + " bytes)");
  }

  // Per-thread tallies merged in thread order, exactly as the fresh walk's.
  const WalkTally tally = walk.total();
  tally.write(plan->stats);
  plan->m2p_by_level = tally.m2p_by_level;
  plan->p2p_by_level = tally.p2p_by_level;
  plan->degree_used = tally.degree_used;
  plan->stats.reference_charge = degrees_.reference_charge;

  reg.counter(obs::metric::kEnginePlanCompiles).add(1);
  reg.gauge(obs::metric::kEnginePlanEntries).record_max(static_cast<double>(total));
  reg.gauge(obs::metric::kEnginePlanBytes).record_max(static_cast<double>(plan_bytes));

  TREECODE_ASSERT_PLAN_INVARIANTS(*plan, tree_, degrees_, config_,
                                  "EvalSession::compile");
  cache_.insert(plan, std::move(plan_reservation));
  return std::shared_ptr<const EvalPlan>(plan);
}

Expected<void> EvalSession::try_ensure_refreshed(const EvalPlan& plan) {
  // First-build multipole coefficients are session-durable storage (reused
  // by every later refresh), reserved as one batch, serially, before the
  // parallel rebuild so the decision is identical at every thread count.
  stale_.clear();
  std::size_t first_build_bytes = 0;
  for (const std::int32_t ni : plan.m2p_nodes) {
    const auto nu = static_cast<std::size_t>(ni);
    if (node_epoch_[nu] == charge_epoch_) continue;
    stale_.push_back(ni);
    if (node_epoch_[nu] == 0) {
      first_build_bytes += tri_size(degrees_.degree[nu]) * sizeof(Complex);
    }
  }
  if (stale_.empty()) return {};
  if (first_build_bytes > 0) {
    ResourceGovernor::Reservation r =
        governor_.reserve(first_build_bytes, "engine.multipoles");
    if (!r) {
      obs::registry().counter(obs::metric::kEngineRefreshDenied).add(1);
      return engine_error(denial_code(governor_),
                          "EvalSession: multipole refresh denied (" +
                              std::to_string(first_build_bytes) + " bytes)");
    }
    multipole_reservation_.absorb(std::move(r));
  }

  try {
    for_each_node(&pool_, stale_.size(), p2m_cost_of(stale_), obs::span::kEngineRefreshWorker,
                  [&](std::size_t j) {
      const auto nu = static_cast<std::size_t>(stale_[j]);
      MultipoleExpansion& m = multipoles_[nu];
      // First build allocates to the node's assigned degree; later
      // refreshes reuse the storage (the degree table is frozen).
      if (node_epoch_[nu] == 0) {
        m.reset(degrees_.degree[nu]);
      } else {
        m.clear();
      }
      build_node_multipoles(nu, sorted_charges_.data(), 0, {&m, 1});
      node_epoch_[nu] = charge_epoch_;
    });
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: refresh worker exception: ") +
                            e.what());
  }
  obs::registry().counter(obs::metric::kEngineNodesRefreshed).add(stale_.size());
  return {};
}

NodeCost EvalSession::p2m_cost_of(std::span<const std::int32_t> node_ids) const {
  return [this, node_ids](std::size_t j) {
    const auto nu = static_cast<std::size_t>(node_ids[j]);
    return p2m_cost(tree_.node(nu), degrees_.degree[nu]);
  };
}

void EvalSession::build_node_multipoles(std::size_t nu, const double* sorted_charges,
                                        std::size_t stride,
                                        std::span<MultipoleExpansion> out) const {
  const TreeNode& node = tree_.node(nu);
  auto column = [&](std::size_t c) {
    return std::span<const double>(sorted_charges + c * stride + node.begin, node.count());
  };
  const std::span<const Vec3> ppos(tree_.positions().data() + node.begin, node.count());
  if (out.size() == 1) {
    p2m(node.center, ppos, column(0), out[0]);
  } else {
    std::vector<std::span<const double>> columns(out.size());
    for (std::size_t c = 0; c < out.size(); ++c) columns[c] = column(c);
    p2m_batch(node.center, ppos, columns, out);
  }
}

Expected<void> EvalSession::check_owned(const EvalPlan& plan) {
  // A foreign plan's node ids may run past the end of this session's tables.
  if (plan.session != id_) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: plan was not compiled by this session");
  }
  if (plan.offsets.size() != plan.num_targets() + 1) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: plan offsets inconsistent with targets");
  }
  return {};
}

Expected<EvalResult> EvalSession::replay(const EvalPlan& plan) {
  const std::size_t n = plan.num_targets();
  // result.stats starts as the plan's charge-independent schedule statistics.
  EvalResult result = blank_result(plan.stats, ServeRung::kReplay, n,
                                   plan.self ? tree_.source_size() : n, config_);
  if (n == 0 || tree_.num_particles() == 0) return result;
  {
    const ScopedTimer refresh_timer(obs::span::kEngineRefresh, &result.stats.build_seconds);
    Expected<void> refreshed = try_ensure_refreshed(plan);
    if (!refreshed.ok()) return refreshed.error();
  }
  Expected<void> served = replay_columns(
      plan, Columns{sorted_charges_.data(), 0, multipoles_.data(), nullptr}, {&result, 1});
  if (!served.ok()) return served.error();
  return result;
}

Expected<void> EvalSession::replay_columns(const EvalPlan& plan, const Columns& columns,
                                           std::span<EvalResult> results) {
  const std::size_t n = plan.num_targets();
  const std::size_t k = results.size();
  const bool batch = columns.slot != nullptr;
  const bool want_bounds = config_.track_error_bounds || config_.enforce_budget;
  const bool want_grad = config_.compute_gradient;  // single-RHS only
  const bool auditing = config_.audit_samples > 0;  // single-RHS only
  const auto& nodes = tree_.nodes();
  const auto& pos = tree_.positions();
  const double softening2 = config_.softening * config_.softening;

  // The replay kernel: one walk of target i's frozen entry stream for the K
  // columns [c0, c0 + K). Per column it makes the single-RHS kernel calls
  // on identical operands in identical order (DESIGN.md §5c), so a column's
  // bits do not depend on K. Gradients and audits exist only at K = 1; the
  // batch path serves them column by column. At K = 1 the terms go through
  // the thread's DeferredM2p, which runs M2P entries two at a time; at
  // K > 1 m2p_batch() runs each entry's harmonics once for the K columns.
  auto kernel = [&]<std::size_t K>(std::size_t i, std::size_t c0, double(&acc)[K],
                                   double& bound, Vec3& grad, DeferredM2p& terms,
                                   obs::audit::Reservoir* audit) {
    const Vec3 x = plan.targets[i];
    const double* q = columns.charges + c0 * columns.stride;
    if constexpr (K == 1) terms.start();
    for (std::uint64_t idx = plan.offsets[i]; idx < plan.offsets[i + 1]; ++idx) {
      const std::int32_t e = plan.entries[idx];
      const auto nu = static_cast<std::size_t>(EvalPlan::node_of(e));
      const TreeNode& node = nodes[nu];
      if (EvalPlan::is_p2p(e)) {
        const std::span<const Vec3> ppos(pos.data() + node.begin, node.count());
        if constexpr (K == 1) {
          const std::span<const double> pq(q + node.begin, node.count());
          if (want_grad) {
            const PotentialGrad pg = p2p_grad(x, ppos, pq, softening2);
            terms.add(pg.potential);
            grad += pg.gradient;
          } else {
            terms.add(p2p(x, ppos, pq, softening2));
          }
        } else {
          std::span<const double> cq[K];
          double out[K];
          for (std::size_t w = 0; w < K; ++w) {
            cq[w] = std::span<const double>(q + w * columns.stride + node.begin, node.count());
          }
          p2p_batch(x, ppos, cq, softening2, out);
          for (std::size_t w = 0; w < K; ++w) acc[w] += out[w];
        }
        continue;
      }
      const std::size_t s = batch ? static_cast<std::size_t>(columns.slot[nu]) : nu;
      const MultipoleExpansion* m = columns.multipoles + s * k + c0;
      // Bounds are charge-independent: accumulated by the first block only.
      if (c0 == 0 && want_bounds) bound += plan.entry_bounds[idx];
      if constexpr (K == 1) {
        std::size_t term;
        if (want_grad) {
          const PotentialGrad pg = m2p_grad(*m, node.center, x);
          term = terms.add(pg.potential);
          grad += pg.gradient;
        } else {
          term = terms.defer(*m, node.center);
        }
        // M2P entries sit in per-target DFS acceptance order, so the
        // (target, ordinal) keys audit exactly the fresh walk's samples.
        if (audit != nullptr) {
          // Plans compiled without bound tracking carry no per-entry
          // bounds; recompute Theorem 1 with the fresh walk's arguments.
          const double r = distance(x, node.center);
          const double thm1 = plan.entry_bounds.empty()
                                  ? multipole_error_bound(node.abs_charge, node.radius, r,
                                                          degrees_.degree[nu])
                                  : plan.entry_bounds[idx];
          terms.note_audit(term, EvalPlan::node_of(e), m->degree(), r, thm1);
        }
      } else {
        double out[K];
        m2p_batch({m, K}, node.center, x, out);
        for (std::size_t w = 0; w < K; ++w) acc[w] += out[w];
      }
    }
    if constexpr (K == 1) {
      acc[0] = terms.flush(x);
      if (audit != nullptr) terms.offer_audits(*audit, config_.audit_seed, i, nodes);
    }
  };

  TargetRows rows(n, k, want_grad, want_bounds);
  std::vector<obs::audit::Reservoir> audits(auditing ? pool_.width() : 0);
  for (auto& r : audits) r.set_capacity(config_.audit_samples);
  std::vector<DeferredM2p> deferred(pool_.width());

  Expected<void> swept = sweep(
      pool_, governor_, config_, batch ? SweepKind::kBatch : SweepKind::kReplay, rows, tree_,
      plan.self, results, [&](std::size_t i, unsigned t) -> std::uint64_t {
        double bound = 0.0;
        Vec3 grad{};
        for (std::size_t c0 = 0; c0 < k; c0 += kMaxWidth) {
          with_width(std::min(kMaxWidth, k - c0), [&](auto width) {
            constexpr std::size_t kWidth = decltype(width)::value;
            double acc[kWidth] = {};
            kernel(i, c0, acc, bound, grad, deferred[t], auditing ? &audits[t] : nullptr);
            for (std::size_t w = 0; w < kWidth; ++w) rows.phi[(c0 + w) * n + i] = acc[w];
          });
        }
        if (want_grad) rows.grad[i] = grad;
        if (want_bounds) rows.bound[i] = bound;
        return plan.target_cost[i] * k;
      });
  if (!swept.ok()) return swept;

  if (auditing) {
    finish_audit(audits, config_.audit_samples, plan.targets, tree_, sorted_charges_,
                 results[0].stats);
  }
  obs::Registry& reg = obs::registry();
  reg.counter(batch ? obs::metric::kEngineBatchReplays : obs::metric::kEngineReplays).add(1);
  reg.counter(obs::metric::kEngineServeReplay).add(1);
  reg.counter(obs::metric::kEngineMultipoleTerms).add(plan.stats.multipole_terms * k);
  reg.counter(obs::metric::kEngineM2pCount).add(plan.stats.m2p_count * k);
  reg.counter(obs::metric::kEngineP2pPairs).add(plan.stats.p2p_pairs * k);
  if (!batch) {
    obs::flush_counts(obs::metric::kEngineM2pPerLevel, plan.m2p_by_level);
    obs::flush_counts(obs::metric::kEngineP2pPerLevel, plan.p2p_by_level);
    obs::flush_counts(obs::metric::kEngineDegreeUsed, plan.degree_used);
  }

  for ([[maybe_unused]] const EvalResult& r : results) {
    TREECODE_ASSERT_EVAL_INVARIANTS(tree_, degrees_, config_, r, r.potential.size(),
                                    batch ? "EvalSession::evaluate_batch"
                                          : "EvalSession::evaluate");
  }
  return {};
}

Expected<EvalResult> EvalSession::serve_degraded(std::span<const Vec3> targets,
                                                 bool self) {
  obs::registry().counter(obs::metric::kEngineDegradedServes).add(1);
  // Rung 1 needs transient multipoles for the whole tree, every node at its
  // assigned degree; reserve them for the duration of the traversal so a
  // concurrent-session budget still holds, then hand the bytes back.
  std::size_t traversal_bytes = 0;
  for (const int p : degrees_.degree) traversal_bytes += tri_size(p) * sizeof(Complex);
  if (ResourceGovernor::Reservation traversal =
          governor_.reserve(traversal_bytes, "engine.traversal")) {
    // Held for the dynamic extent of the traversal; returned on any exit.
    return serve_traversal(targets, self);
  }
  return serve_direct(targets, self);
}

Expected<EvalResult> EvalSession::serve_traversal(std::span<const Vec3> targets,
                                                  bool self) {
  if (governor_.deadline_expired() && !config_.deadline_partial) {
    return engine_error(ErrorCode::kDeadline,
                        "EvalSession: deadline expired before traversal fallback");
  }
  // The fresh evaluator re-runs validation, degree assignment, and the full
  // upward pass — this is the degraded path; nothing durable is kept.
  try {
    const BarnesHutEvaluator fresh(tree_, config_, &pool_, sorted_charges_);
    EvalResult result = self ? fresh.evaluate(pool_) : fresh.evaluate_at(pool_, targets);
    result.stats.served_rung = ServeRung::kTraversal;
    result.stats.outcome = ErrorCode::kOk;
    result.stats.targets_served = static_cast<std::uint64_t>(targets.size());
    obs::registry().counter(obs::metric::kEngineServeTraversal).add(1);
    return result;
  } catch (const std::invalid_argument& e) {
    return engine_error(ErrorCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    const std::string what = e.what();
    const ErrorCode code = what.find("non-finite") != std::string::npos
                               ? ErrorCode::kNonFinite
                               : ErrorCode::kInternal;
    return engine_error(code, what);
  }
}

Expected<EvalResult> EvalSession::serve_direct(std::span<const Vec3> targets, bool self) {
  const std::size_t n = targets.size();
  // Direct summation is exact: the Theorem-1 truncation error of every
  // interaction is zero, so the a-posteriori bound vector is identically
  // zero and trivially within any error budget.
  EvalResult result = blank_result(EvalStats{}, ServeRung::kDirect, n,
                                   self ? tree_.source_size() : n, config_);
  obs::registry().counter(obs::metric::kEngineServeDirect).add(1);
  if (n == 0 || tree_.num_particles() == 0) return result;

  // Non-finite external targets fail under kThrow; otherwise they keep a
  // zero slot (self targets are the tree's validated particles).
  if (!self && tree_.config().validation == ValidationPolicy::kThrow && !all_finite(targets)) {
    return engine_error(ErrorCode::kNonFinite,
                        "EvalSession::direct: " + validate_targets(targets).summary());
  }

  const std::span<const Vec3> sources(tree_.positions().data(), tree_.num_particles());
  const std::span<const double> charges(sorted_charges_.data(), tree_.num_particles());
  const double softening2 = config_.softening * config_.softening;
  const bool want_grad = config_.compute_gradient;
  TargetRows rows(n, 1, want_grad, !result.error_bound.empty());
  Expected<void> swept = sweep(
      pool_, governor_, config_, SweepKind::kDirect, rows, tree_, self, {&result, 1},
      [&](std::size_t i, unsigned) -> std::uint64_t {
        if (!all_finite(targets.subspan(i, 1))) return 0;
        if (want_grad) {
          const PotentialGrad pg = p2p_grad(targets[i], sources, charges, softening2);
          rows.phi[i] = pg.potential;
          rows.grad[i] = pg.gradient;
        } else {
          rows.phi[i] = p2p(targets[i], sources, charges, softening2);
        }
        return static_cast<std::uint64_t>(sources.size());
      });
  if (!swept.ok()) return swept.error();
  result.stats.p2p_pairs = result.stats.work.total_work();
  return result;
}

Expected<EvalResult> EvalSession::try_evaluate(const EvalPlan& plan) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluatePlan);
  Expected<EvalResult> served = try_evaluate_impl(plan);
  emit_request("evaluate_plan", plan.key, timer.seconds(),
               served.ok() ? nullptr : &served.error(),
               served.ok() ? &served.value().stats : nullptr, *this, rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate_impl(const EvalPlan& plan) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  if (Expected<void> owned = check_owned(plan); !owned.ok()) return owned.error();
  Expected<EvalResult> served = replay(plan);
  if (served.ok() || !memory_class(served.error().code)) return served;
  return serve_degraded(plan.targets, plan.self);
}

Expected<std::vector<EvalResult>> EvalSession::try_evaluate_batch(
    const EvalPlan& plan, std::span<const std::span<const double>> charge_columns) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateBatch);
  Expected<std::vector<EvalResult>> served =
      try_evaluate_batch_impl(plan, charge_columns);
  const EvalStats* stats =
      served.ok() && !served.value().empty() ? &served.value().front().stats : nullptr;
  emit_request("evaluate_batch", plan.key, timer.seconds(),
               served.ok() ? nullptr : &served.error(), stats, *this, rscope,
               static_cast<std::uint32_t>(charge_columns.size()));
  return served;
}

Expected<std::vector<EvalResult>> EvalSession::try_evaluate_batch_impl(
    const EvalPlan& plan, std::span<const std::span<const double>> charge_columns) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  if (Expected<void> owned = check_owned(plan); !owned.ok()) return owned.error();
  const std::size_t k = charge_columns.size();
  if (k == 0) {
    return engine_error(ErrorCode::kInvalidArgument,
                        "EvalSession: batch has no charge columns");
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (charge_columns[c].size() != tree_.source_size()) {
      return engine_error(ErrorCode::kInvalidArgument,
                          "EvalSession: batch column " + std::to_string(c) +
                              " size mismatch");
    }
    if (!all_finite(charge_columns[c])) {
      return engine_error(ErrorCode::kNonFinite,
                          "EvalSession: batch column " + std::to_string(c) +
                              " has non-finite values");
    }
  }
  obs::Registry& reg = obs::registry();
  reg.counter(obs::metric::kEngineBatchColumns).add(k);

  // Per-column single-RHS replay, trivially bitwise-identical, for configs
  // without a batched kernel form and for a denied workspace. It leaves the
  // session's charges at the last column.
  auto sequential = [&]() -> Expected<std::vector<EvalResult>> {
    reg.counter(obs::metric::kEngineBatchFallbacks).add(1);
    std::vector<EvalResult> results;
    for (const std::span<const double> column : charge_columns) {
      Expected<void> updated = try_update_charges_impl(column, /*sorted=*/false);
      if (!updated.ok()) return updated.error();
      Expected<EvalResult> served = try_evaluate_impl(plan);
      if (!served.ok()) return served.error();
      results.push_back(std::move(served).value());
    }
    return results;
  };
  // Gradients and audits have no batched form: m2p_grad has no K-column
  // kernel, and audit reservoirs key on a single charge vector.
  if (config_.compute_gradient || config_.audit_samples > 0) return sequential();

  const std::size_t n = plan.num_targets();
  const std::size_t np = tree_.num_particles();
  std::vector<EvalResult> results(
      k, blank_result(plan.stats, ServeRung::kReplay, n, plan.self ? tree_.source_size() : n,
                      config_));
  if (n == 0 || np == 0) return results;

  // Governed batch workspace: k per-column copies of every plan-referenced
  // multipole, the k sorted charge columns, and the k potential rows.
  // Reserved before any allocation; a denial falls back to the sequential
  // path rather than failing the batch.
  std::size_t coeff_bytes = 0;
  for (const std::int32_t ni : plan.m2p_nodes) {
    coeff_bytes +=
        tri_size(degrees_.degree[static_cast<std::size_t>(ni)]) * sizeof(Complex);
  }
  const std::size_t workspace_bytes =
      coeff_bytes * k + k * np * sizeof(double) + k * n * sizeof(double);
  ResourceGovernor::Reservation workspace =
      governor_.reserve(workspace_bytes, "engine.batch");
  if (!workspace) {
    reg.counter(obs::metric::kEngineBatchDenied).add(1);
    return sequential();
  }

  // The workspace: each column gathered into tree-sorted order (the
  // permutation try_update_charges performs), and per-column multipoles of
  // every plan-referenced node (slot j, column c at batch_m[j * k + c]),
  // rebuilt exactly as the single-RHS refresh would.
  std::vector<double> sorted(k * np);
  const std::size_t num_m2p = plan.m2p_nodes.size();
  std::vector<MultipoleExpansion> batch_m(num_m2p * k);
  std::vector<std::int32_t> m2p_slot(tree_.nodes().size(), -1);
  double refresh_seconds = 0.0;
  try {
    const ScopedTimer refresh_timer(obs::span::kEngineRefresh, &refresh_seconds);
    const auto& orig = tree_.original_index();
    for (std::size_t c = 0; c < k; ++c) {
      double* col = sorted.data() + c * np;
      const std::span<const double> src = charge_columns[c];
      for (std::size_t si = 0; si < orig.size(); ++si) col[si] = src[orig[si]];
    }
    for_each_node(&pool_, num_m2p, p2m_cost_of(plan.m2p_nodes), obs::span::kEngineRefreshWorker,
                  [&](std::size_t j) {
      const auto nu = static_cast<std::size_t>(plan.m2p_nodes[j]);
      m2p_slot[nu] = static_cast<std::int32_t>(j);
      const std::span<MultipoleExpansion> out(batch_m.data() + j * k, k);
      for (MultipoleExpansion& m : out) m.reset(degrees_.degree[nu]);
      build_node_multipoles(nu, sorted.data(), np, out);
    });
  } catch (const std::exception& e) {
    return engine_error(ErrorCode::kInternal,
                        std::string("EvalSession: batch refresh worker exception: ") +
                            e.what());
  }
  for (EvalResult& r : results) r.stats.build_seconds = refresh_seconds;

  Expected<void> served = replay_columns(
      plan, Columns{sorted.data(), np, batch_m.data(), m2p_slot.data()}, results);
  if (!served.ok()) return served.error();
  return results;
}

Expected<EvalResult> EvalSession::try_evaluate_at(std::span<const Vec3> targets) {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateAt);
  std::uint64_t key = 0;
  Expected<EvalResult> served = try_evaluate_at_impl(targets, /*self=*/false, key);
  emit_request("evaluate_at", key, timer.seconds(),
               served.ok() ? nullptr : &served.error(),
               served.ok() ? &served.value().stats : nullptr, *this, rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate() {
  const Timer timer;
  obs::reqtrace::RequestScope rscope(obs::span::kReqEngineEvaluateSelf);
  std::uint64_t key = 0;
  Expected<EvalResult> served =
      try_evaluate_at_impl(tree_.positions(), /*self=*/true, key);
  emit_request("evaluate_self", key, timer.seconds(),
               served.ok() ? nullptr : &served.error(),
               served.ok() ? &served.value().stats : nullptr, *this, rscope);
  return served;
}

Expected<EvalResult> EvalSession::try_evaluate_at_impl(std::span<const Vec3> targets,
                                                       bool self,
                                                       std::uint64_t& key_out) {
  const DeadlineScope deadline(governor_, config_.deadline_seconds);
  Expected<std::shared_ptr<const EvalPlan>> plan = try_compile_impl(targets, self);
  if (plan.ok()) {
    key_out = plan.value()->key;
    Expected<EvalResult> served = replay(*plan.value());
    if (served.ok() || !memory_class(served.error().code)) return served;
  } else if (!memory_class(plan.error().code)) {
    return plan.error();
  }
  return serve_degraded(targets, self);
}

}  // namespace treecode::engine
