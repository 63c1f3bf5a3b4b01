#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "emb/workload.hpp"

namespace perfbench {

using namespace pgasemb;

HostCounters hostCounters() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  HostCounters c;
  c.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  c.minor_faults = usage.ru_minflt;
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

int tailPercentile(std::size_t n) {
  for (int p = 99; p > 50; --p) {
    const double beyond = static_cast<double>(n) * (100 - p) / 100.0;
    if (beyond >= 10.0) return p;
  }
  return 50;
}

// --- Report ---------------------------------------------------------------

namespace {

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonMetrics(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + jsonNumber(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit, std::int64_t samples,
                      const std::string& note) {
  e2e_[name] = {value, unit};
  printf("e2e    %-26s %14.6f %-6s n=%lld%s%s\n", name.c_str(), value,
         unit.c_str(), static_cast<long long>(samples),
         note.empty() ? "" : "  ", note.c_str());
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  layer_[name] = {value, unit};
  printf("layer  %-34s %14.6f %-6s%s%s\n", name.c_str(), value, unit.c_str(),
         note.empty() ? "" : "  ", note.c_str());
}

void Report::fail(const std::string& why) {
  ++failed_;
  printf("FAILED %s\n", why.c_str());
}

void Report::complete(const std::vector<MetricDef>& defs, bool trace) {
  auto& group = trace ? layer_ : e2e_;
  std::map<std::string, std::string> units;
  for (const auto& d : defs) {
    units[d.name] = d.unit;
    const auto it = group.find(d.name);
    if (it == group.end()) {
      if (trace) {
        group[d.name] = {0.0, d.unit};
      } else {
        fail("metric " + d.name + " was not measured");
      }
    } else if (it->second.unit != d.unit) {
      fail("metric " + d.name + " has unit " + it->second.unit + ", not " +
           d.unit);
    }
  }
  for (const auto& [name, e] : group) {
    if (units.count(name) == 0) fail("metric " + name + " is not declared");
  }
}

std::string Report::json(bool trace) const {
  std::map<std::string, std::pair<double, std::string>> m;
  for (const auto& [name, e] : trace ? layer_ : e2e_) {
    m[name] = {e.value, e.unit};
  }
  return std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + jsonMetrics(m) + "}";
}

// --- Spans ----------------------------------------------------------------

namespace {
SpanRecorder* g_recorder = nullptr;
}

SpanRecorder* SpanRecorder::active() { return g_recorder; }
void SpanRecorder::setActive(SpanRecorder* recorder) { g_recorder = recorder; }

int SpanRecorder::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.batch = batch_;
  s.start = nowSec();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = nowSec();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, std::pair<double, std::int64_t>>
SpanRecorder::selfTimes() const {
  // Children nest strictly inside their parent (the stack discipline),
  // so a parent's covered time is the sum of its direct children.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, std::pair<double, std::int64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& slot = out[spans_[i].name];
    slot.first += (spans_[i].end - spans_[i].start) - child_time[i];
    ++slot.second;
  }
  return out;
}

void SpanRecorder::writeJson(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    printf("note: cannot write %s\n", path.c_str());
    return;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    fprintf(f,
            "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
            "\"end_us\": %.3f, \"parent\": %d, \"batch\": %lld}%s\n",
            i, s.name.c_str(), (s.start - t0) * 1e6, (s.end - t0) * 1e6,
            s.parent, static_cast<long long>(s.batch),
            i + 1 < spans_.size() ? "," : "");
  }
  fprintf(f, "]\n");
  fclose(f);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (auto* r = SpanRecorder::active()) id_ = r->begin(name);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) {
    if (auto* r = SpanRecorder::active()) r->end(id_);
  }
}

// --- Timing decorator -----------------------------------------------------

namespace {

class TimedRetriever : public core::EmbeddingRetriever {
 public:
  explicit TimedRetriever(std::unique_ptr<core::EmbeddingRetriever> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    // Inside a runner the caller cannot tag batches; number them here.
    auto* recorder = SpanRecorder::active();
    const bool tag = recorder != nullptr && recorder->batch() < 0;
    if (tag) recorder->setBatch(batches_);
    core::BatchTiming timing;
    {
      ScopedSpan span("core.runBatch");
      timing = inner_->runBatch(batch);
    }
    if (tag) recorder->setBatch(-1);
    ++batches_;
    return timing;
  }
  SimTime finish() override {
    ScopedSpan span("core.finish");
    return inner_->finish();
  }
  gpu::DeviceBuffer& output(int gpu) override { return inner_->output(gpu); }

 private:
  std::unique_ptr<core::EmbeddingRetriever> inner_;
  std::int64_t batches_ = 0;
};

}  // namespace

std::string retrieverName(const Scheme& scheme, bool traced) {
  if (!traced) return scheme.registry_name;
  const std::string inner = scheme.registry_name;
  const std::string name = "timed:" + inner;
  auto& registry = core::RetrieverRegistry::instance();
  if (!registry.contains(name)) {
    registry.add(name, [inner](const core::SystemContext& ctx) {
      return std::unique_ptr<core::EmbeddingRetriever>(new TimedRetriever(
          core::RetrieverRegistry::instance().create(inner, ctx)));
    });
  }
  return name;
}

// --- Seeded inputs --------------------------------------------------------

emb::SparseBatch realizedPoolingBatch(const emb::SparseBatchSpec& base,
                                      Rng& rng) {
  emb::SparseBatchSpec spec = base;
  const double lo = base.min_pooling;
  const double hi = base.max_pooling;
  const double n = static_cast<double>(base.batch_size);
  // Sum of n iid U{lo..hi}: mean (lo + hi) / 2, variance ((hi-lo+1)^2-1)/12
  // per draw; at n >= 10^3 the normal limit is exact to the grid below.
  const double width = hi - lo + 1.0;
  const double sd_mean = std::sqrt((width * width - 1.0) / 12.0 / n);
  spec.per_table_max_pooling.resize(static_cast<std::size_t>(base.num_tables));
  // A statistical table's expected pooling is (min + max_t) / 2, a
  // half-integer grid. Error diffusion over consecutive tables keeps
  // every run of tables (a GPU's table block) at its realized total to
  // within a quarter bag per table.
  double carry = 0.0;
  for (auto& max_pool : spec.per_table_max_pooling) {
    const double target = 0.5 * (lo + hi) + sd_mean * rng.normal() + carry;
    max_pool = std::max(base.min_pooling,
                        static_cast<int>(std::lround(2.0 * target - lo)));
    carry = target - 0.5 * (lo + max_pool);
  }
  return emb::SparseBatch::statistical(spec);
}

QueryPacker::QueryPacker(std::int64_t capacity, int queries,
                         std::uint64_t seed)
    : capacity_(capacity), queries_(queries), rng_(seed) {}

std::int64_t QueryPacker::next() {
  static const emb::QuerySizeSampler sampler(
      emb::parseQuerySizeSpec("zipf:1.1:1-64"));
  std::int64_t filled = carry_;
  int taken = carry_ > 0 ? 1 : 0;
  carry_ = 0;
  for (; taken < queries_; ++taken) {
    const std::int64_t q = sampler.sample(rng_);
    if (filled + q > capacity_) {
      carry_ = q;
      break;
    }
    filled += q;
  }
  return filled;
}

}  // namespace perfbench
