#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "bem/meshgen.hpp"
#include "obs/openmetrics.hpp"

namespace treecode::suite {

EvalConfig eval_config() {
  EvalConfig cfg;
  cfg.alpha = 0.5;
  cfg.degree = 4;
  cfg.mode = DegreeMode::kAdaptive;
  cfg.threads = kThreads;
  return cfg;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void PooledError::add(std::span<const double> approx, std::span<const double> exact) {
  for (std::size_t i = 0; i < exact.size(); ++i) {
    num_ += (approx[i] - exact[i]) * (approx[i] - exact[i]);
    den_ += exact[i] * exact[i];
  }
}

double PooledError::value() const { return den_ > 0.0 ? std::sqrt(num_ / den_) : 0.0; }

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- Report ----------------------------------------------------------------

void Report::fail(const std::string& why) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++failed;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::set_e2e(const std::string& name, double value, const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Report::set_layer(const std::string& name, double value, const std::string& unit) {
  layers_[name] = Metric{value, unit};
}

void Report::set_op_latencies(const std::vector<double>& seconds) {
  set_e2e("op_p50_s", quantile(seconds, 0.50), "s");
  set_e2e("op_p90_s", quantile(seconds, 0.90), "s");
  details["op_samples"] = static_cast<std::uint64_t>(seconds.size());
}

// ---- Tracer ----------------------------------------------------------------

namespace {
/// Innermost open span on this thread (spans nest strictly per thread).
thread_local Tracer::Scope* tl_current = nullptr;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t op)
    : tracer_(tracer), name_(name), op_(op) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_current;
  tl_current = this;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double duration = seconds_between(start_, end);
  tl_current = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += duration;
  const Record record{name_,
                      seconds_between(tracer_->origin_, start_),
                      seconds_between(tracer_->origin_, end),
                      id_,
                      parent_ != nullptr ? parent_->id_ : 0,
                      op_,
                      duration - child_seconds_};
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(record);
}

obs::Json Tracer::summary_json() const {
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Record& r : records_) {
      Row& row = rows[r.name];
      ++row.count;
      row.total += r.end_s - r.start_s;
      row.self += r.self_s;
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.total > b.second.total; });
  obs::Json out = obs::Json::array();
  for (const auto& [name, row] : sorted) {
    obs::Json j = obs::Json::object();
    j["name"] = name;
    j["count"] = row.count;
    j["total_s"] = row.total;
    j["self_s"] = row.self;
    out.push_back(std::move(j));
  }
  return out;
}

// ---- RegistryDelta ---------------------------------------------------------

namespace {
double counter_in(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}
}  // namespace

double RegistryDelta::counter(const char* name) const {
  return counter_in(after, name) - counter_in(before, name);
}

double RegistryDelta::phase_seconds(const char* span) const {
  return counter((std::string(span) + "_ns").c_str()) * 1e-9;
}

double RegistryDelta::histogram_quantile(const char* name, double q) const {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0.0;
  obs::HistogramSnapshot h = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.counts.size() == h.counts.size()) {
    for (std::size_t i = 0; i < h.counts.size(); ++i) h.counts[i] -= b->second.counts[i];
    h.total -= b->second.total;
    h.sum -= b->second.sum;
  }
  return h.total == 0 ? 0.0 : obs::openmetrics::histogram_quantile(h, q);
}

// ---- inputs ----------------------------------------------------------------

Propeller make_propeller_mesh(std::size_t elements) {
  const LatLonSize ls = latlon_for_triangles(elements);
  Propeller p{make_propeller(ls.n_lat, ls.n_lon), {}};
  p.quad = quadrature_points(p.mesh, triangle_rule(6));
  return p;
}

ParticleSystem gauss_particles(const std::vector<MeshQuadPoint>& points) {
  std::vector<Vec3> positions;
  std::vector<double> charges;
  positions.reserve(points.size());
  charges.reserve(points.size());
  for (const MeshQuadPoint& p : points) {
    positions.push_back(p.position);
    charges.push_back(p.weight);
  }
  return ParticleSystem(std::move(positions), std::move(charges));
}

std::vector<std::vector<double>> make_columns(const ParticleSystem& ps, std::size_t k,
                                              std::uint64_t seed) {
  std::vector<std::vector<double>> columns(k, std::vector<double>(ps.size()));
  for (std::size_t c = 0; c < k; ++c) {
    std::mt19937_64 rng(mix_seed(seed, c));
    std::uniform_real_distribution<double> density(0.5, 1.5);
    for (std::size_t i = 0; i < ps.size(); ++i) columns[c][i] = ps.charge(i) * density(rng);
  }
  return columns;
}

}  // namespace treecode::suite
