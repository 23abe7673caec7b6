// The T_lookup ledger: one binary that times the real UQ-gated serving
// stack end to end and, in a traced run, layer by layer.
//
//   tlookup_ledger --workload uq-open|sweep-inline --seed N
//                  --seconds S --trace 0|1 [--inject-uq F] [--out DIR]
//
// Prints a human-readable ledger (fingerprint, per-phase sent/succeeded/
// failed, every check) and, as its last line, "LEDGER <json>" with every
// metric the run produced.  run.py turns that into the benchmark's result
// line.  README.md in this directory explains the workloads and metrics.
#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "le/data/sampler.hpp"
#include "le/net/wire.hpp"
#include "le/obs/timer.hpp"
#include "le/retrain/retraining_service.hpp"
#include "le/serve/admission.hpp"
#include "le/serve/batch_queue.hpp"
#include "le/serve/load_gen.hpp"
#include "le/tensor/simd.hpp"
#include "stack.hpp"

namespace ledger {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kSetups = 3;         // set-ups per run; setup_s is their median
constexpr double kMaxFailFrac = 0.01;      // failure bound of a passing ladder rung
// Quality bounds (normalized RMSE), set about 1.5x above what seeded runs
// measure (README.md): the served MC mean against the exact dropout-off
// forward (0.060-0.064), and the median of a run's retrain candidates
// against their held-out labels (0.14-0.22).
constexpr double kServedRmseBound = 0.1;
constexpr double kCandidateRmseBound = 0.3;
constexpr std::uint64_t kHeldout = 1024;    // points mc_rmse is scored on
constexpr double kLagShare = 0.5;          // generator-lag p99 bound, share of the limit
constexpr double kReconTolerance = 0.05;   // |1 - sum(stage self) / e2e|
constexpr std::size_t kTraceRequests = 3000;  // requests per phase in the Chrome trace

// ---------------------------------------------------------------------
// Options, fingerprint, output

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double inject_uq = 0.0;
  std::string out_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--inject-uq") o.inject_uq = std::stod(v);
    else if (k == "--out") o.out_dir = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.workload != "uq-open" && o.workload != "sweep-inline") {
    throw std::invalid_argument("--workload must be uq-open or sweep-inline");
  }
  if (!(o.seconds >= 1.0)) throw std::invalid_argument("--seconds must be >= 1");
  return o;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0, ok = 0, failed = 0;
  bool counted = true;  // false: ladder rungs, which overload on purpose
};

/// Everything one run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<PhaseCount> phases;
  std::vector<std::string> failures;  // failed correctness checks
  std::vector<float> lags;            // generator lag of every fixed-rate request
  std::uint64_t bad_rows = 0;         // non-finite or misshapen answers
  std::uint64_t mismatches = 0;       // cached repeats that differ from first-served
  std::map<std::string, std::string> fingerprint;

  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
  void check(bool ok, const std::string& what) {
    std::printf("  check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.push_back(what);
  }
  /// Requests of the fixed-load phases (ladder rungs overload on purpose
  /// and are reported per rung instead).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> attempted_failed() const {
    std::uint64_t a = 0, f = 0;
    for (const PhaseCount& p : phases) {
      if (p.counted) {
        a += p.sent;
        f += p.failed;
      }
    }
    return {a, f};
  }
  void phase(const PhaseCount& p) {
    std::printf("  phase %-18s sent %8llu  succeeded %8llu  failed %6llu%s\n",
                p.name.c_str(), static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed),
                p.counted ? "" : "  (ladder rung)");
    phases.push_back(p);
  }
};

std::map<std::string, std::string> fingerprint(const Options& o) {
  std::map<std::string, std::string> f;
  f["nproc"] = std::to_string(std::thread::hardware_concurrency());
  __builtin_cpu_init();
  f["avx2"] = __builtin_cpu_supports("avx2") ? "1" : "0";
  f["fma"] = __builtin_cpu_supports("fma") ? "1" : "0";
  f["avx512vnni"] = __builtin_cpu_supports("avx512vnni") ? "1" : "0";
  f["avxvnni"] = __builtin_cpu_supports("avxvnni") ? "1" : "0";
  f["compiler"] = std::string(TLOOKUP_COMPILER) + " (" + __VERSION__ + ")";
  f["build_type"] = TLOOKUP_BUILD_TYPE;
  f["gemm_default"] = tensor::to_string(tensor::active_gemm_kernel());
  f["seed"] = std::to_string(o.seed);
  f["workload"] = o.workload;
  return f;
}

void record_plans(Report& r, const std::vector<nn::LayerPlanChoice>& plans) {
  for (const nn::LayerPlanChoice& c : plans) {
    r.fingerprint["gemm_layer" + std::to_string(c.layer_index)] =
        tensor::to_string(c.plan.kernel) + " " + std::to_string(c.rows) + "x" +
        std::to_string(c.inner) + "x" + std::to_string(c.cols);
  }
}

/// Peak resident set of this process so far (VmHWM), in KiB.
double self_peak_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss);
}

/// Peak resident set of the largest reaped child (the net sub-run's shard
/// workers), KiB.
double children_peak_kb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss);
}

// ---------------------------------------------------------------------
// In-memory spans, written as a Chrome trace at the end of a traced run.

struct Span {
  const char* name;
  double t0, t1;
  int tid;             // 1 generator/caller, 2 serving thread, 3 collector
  std::uint64_t id;    // request id (shared by a request's spans) or batch id
  bool batch;
};

class TraceSink {
 public:
  void add(const char* name, double t0, double t1, int tid, std::uint64_t id,
           bool batch = false) {
    spans_.push_back({name, t0, t1, tid, id, batch});
  }
  void write(const std::string& path,
             const std::map<std::string, std::string>& fp) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      out << (first ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << num(s.t0 * 1e6) << ",\"dur\":"
          << num((s.t1 - s.t0) * 1e6) << ",\"args\":{\""
          << (s.batch ? "batch" : "request") << "\":" << s.id << "}}";
      first = false;
    }
    out << "],\"otherData\":{";
    first = true;
    for (const auto& [k, v] : fp) {
      out << (first ? "" : ",") << json_str(k) << ":" << json_str(v);
      first = false;
    }
    out << "}}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Per-layer accumulators of a traced run.
struct Layers {
  // serve
  std::vector<double> queue_wait, lag, batch_rows, deliver;
  // core / uq (batch path)
  double batch_self_s = 0.0, batch_uq_s = 0.0, batch_uq_rows = 0.0;
  // core / uq (single-row path), seconds
  std::vector<double> hit, miss_self, predict;
  // net
  std::vector<double> rtt, worker, wire, shard_rows, imbalance;
  // reconciliation: sum over requests of stage self time vs e2e; service
  // (busy) time and the uq layer's part of it
  double stage_sum = 0.0, e2e_sum = 0.0, busy_sum = 0.0, uq_sum = 0.0;
  // cross-checks against the stack's own books (see reconcile())
  std::uint64_t mapped = 0, unmapped = 0;  // answered requests with / without a batch
  std::uint64_t acausal = 0;   // requests or batches whose spans break their order
  std::uint64_t miscounted = 0;  // slices whose batches or rows differ from BatchQueue's
  double closure_s = 0.0;      // forward-closure time, benchmark clock
  double queue_forward_s = 0.0;  // the same forwards, as BatchQueue books them
  bool front = false;          // served through admission + BatchQueue
  std::uint64_t stack_answers = 0;  // inline: answers the dispatcher counted while traced
};

// ---------------------------------------------------------------------
// Open-loop machinery: admission -> BatchQueue -> backend

struct BatchRec {
  double f0 = 0.0, f1 = 0.0;  // forward closure span
  double call0 = 0.0, call1 = 0.0;  // the stack call inside it (query_batch)
  double inner0 = 0.0, inner1 = 0.0;  // nested uq span (uq-open)
  double uq_s = 0.0;          // nested uq time (uq-open)
  double booked_s = 0.0;      // the dispatcher's own booking of the batch (uq-open)
  double worker_s = 0.0;      // slowest worker, on its own clock (net)
  std::size_t rows = 0, first = 0;
  std::vector<std::size_t> per_shard;
};

/// What the forward closure calls: answers `in` into `out`, marking shed
/// rows, and fills the nested-layer parts of `rec` when tracing.
using Backend = std::function<void(const tensor::Matrix& in, tensor::Matrix& out,
                                   std::span<serve::ShedReason> shed,
                                   BatchRec& rec)>;

/// What the BatchQueue itself recorded: its batch and row counters and
/// the sum of its batch_seconds histogram (each forward, on its own clock).
struct QueueBooks {
  std::uint64_t batches = 0, queries = 0;
  double forward_s = 0.0;
};

/// The serving edge as deployed: AdmissionController (defaults) in front
/// of a BatchQueue (max batch 64, 200 us max wait).  In a traced run it
/// maps each dispatched batch to the requests in it: the queue is FIFO and
/// the generator records each admitted id under the same lock it submits
/// with, so batch k holds the next `rows` admitted ids.
class Front {
 public:
  explicit Front(Backend backend)
      : backend_(std::move(backend)),
        batch_seconds_(&obs::MetricsRegistry::global().histogram(
            "serve.batch_queue.batch_seconds")) {
    serve::BatchQueueConfig cfg;
    cfg.max_batch = kMaxBatch;
    cfg.input_dim = 5;
    admission_ = std::make_shared<serve::AdmissionController>(serve::AdmissionConfig{});
    admission_->enable_metrics(obs::MetricsRegistry::global());
    queue_ = std::make_unique<serve::BatchQueue>(
        serve::ShedAwareForwardFn(
            [this](const tensor::Matrix& in, std::span<const serve::Deadline>,
                   std::span<serve::ShedReason> shed) { return forward(in, shed); }),
        cfg);
    queue_->set_admission(admission_);
    queue_->enable_metrics(obs::MetricsRegistry::global());
    mark_ = queue_books();
  }
  ~Front() { queue_->stop(); }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  /// Submits one request; nullopt when admission refused it.
  std::optional<std::future<std::vector<double>>> submit(std::span<const double> x,
                                                         std::size_t id) {
    try {
      if (!trace_) return queue_->submit(x);
      std::lock_guard lock(ids_mutex_);
      auto fut = queue_->submit(x);
      admitted_.push_back(id);
      return fut;
    } catch (const serve::ShedError&) {
      return std::nullopt;
    }
  }

  /// Takes the batches and admitted ids recorded since the last settle(),
  /// and what the BatchQueue booked over the same stretch (call only while
  /// the queue is drained).
  void take(std::vector<BatchRec>& batches, std::vector<std::size_t>& admitted,
            QueueBooks& books) {
    std::lock_guard lock(ids_mutex_);
    batches.swap(batches_);
    admitted.swap(admitted_);
    const QueueBooks now = queue_books();
    books = {now.batches - mark_.batches, now.queries - mark_.queries,
             now.forward_s - mark_.forward_s};
    restart_locked();
  }

  serve::AdmissionStats admission() const { return admission_->stats(); }

  /// Lets an overloaded previous slice fade before the next one starts:
  /// the admission controller keeps shedding after an overload until an
  /// admitted request reports a short queue wait, so one request is sent
  /// (retried while refused) and awaited on the idle queue.  The slice's
  /// batch mapping and book marks start after it.
  void settle(std::span<const double> x) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      try {
        (void)queue_->submit(x).get();
        break;
      } catch (const serve::ShedError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    std::lock_guard lock(ids_mutex_);
    restart_locked();
  }

  /// Turns batch/request mapping on or off between phases (queue drained).
  void set_trace(bool on) {
    std::lock_guard lock(ids_mutex_);
    trace_ = on;
  }

 private:
  tensor::Matrix forward(const tensor::Matrix& in, std::span<serve::ShedReason> shed) {
    BatchRec rec;
    rec.rows = in.rows();
    const bool trace = trace_;
    rec.f0 = trace ? now_s() : 0.0;
    tensor::Matrix out(in.rows(), 3);
    backend_(in, out, shed, rec);
    if (trace) {
      rec.f1 = now_s();
      std::lock_guard lock(ids_mutex_);
      rec.first = claimed_;
      claimed_ += in.rows();
      batches_.push_back(std::move(rec));
    }
    return out;
  }

  // The queue is idle here: its counters and histogram are settled (the
  // histogram is recorded before a batch's promises resolve).
  QueueBooks queue_books() const {
    const serve::BatchQueueStats st = queue_->stats();
    return {st.batches, st.queries, batch_seconds_->sum()};
  }
  void restart_locked() {
    batches_.clear();
    admitted_.clear();
    claimed_ = 0;
    mark_ = queue_books();
  }

  Backend backend_;
  obs::Histogram* batch_seconds_;
  QueueBooks mark_;
  std::atomic<bool> trace_{false};
  std::shared_ptr<serve::AdmissionController> admission_;
  std::mutex ids_mutex_;  // guards admitted_, claimed_, batches_
  std::vector<std::size_t> admitted_;
  std::size_t claimed_ = 0;
  std::vector<BatchRec> batches_;
  std::unique_ptr<serve::BatchQueue> queue_;  // last: its thread calls forward()
};

struct Req {
  double sched = 0.0, s0 = 0.0, s1 = 0.0, done = 0.0;
  double lag = 0.0;  // how late the generator sent it
  double origin = 0.0;  // where its latency is timed from
  bool ok = false;
};

struct OpenRun {
  // Per-request records (the inline loop keeps a sample, see run_inline);
  // sent / ok / failed count every request, where it is sent and answered.
  std::vector<Req> reqs;
  std::vector<float> closed_lat;  // closed loops: seconds, inf = failed
  double wall = 0.0;              // closed loops: phase wall time
  std::uint64_t sent = 0, ok = 0, failed = 0;
  std::vector<BatchRec> batches;
  std::vector<std::size_t> admitted;
  QueueBooks books;  // what the BatchQueue booked during the slice
  std::uint64_t bad_rows = 0, mismatches = 0;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v(closed_lat.begin(), closed_lat.end());
    v.reserve(v.size() + reqs.size());
    for (const Req& r : reqs) v.push_back(r.ok ? r.done - r.origin : kInf);
    return v;
  }
  [[nodiscard]] double lag_p99() const {
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Req& r : reqs) v.push_back(r.lag);
    return v.empty() ? 0.0 : quantile(v, 0.99);
  }
  [[nodiscard]] PhaseCount count(const std::string& name) const {
    return {name, sent, ok, failed};
  }
};

/// One open-loop phase: this thread sends each request at its scheduled
/// time, a collector thread waits for the answers in order.  `expect[i]`,
/// when set, is the first-served answer a cached repeat must equal bit
/// for bit.
OpenRun run_open(Front& front, const std::vector<serve::Arrival>& arrivals,
                 const std::vector<std::vector<double>>& points,
                 const std::vector<const std::vector<double>*>& expect) {
  OpenRun run;
  const std::size_t n = arrivals.size();
  run.reqs.resize(n);
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<std::vector<double>>>> pending;
  bool closing = false;
  std::uint64_t answered_failed = 0;  // collector thread; refusals are counted apart

  if (!points.empty()) front.settle(points.front());
  std::thread collector([&] {
    for (;;) {
      std::pair<std::size_t, std::future<std::vector<double>>> item;
      {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return !pending.empty() || closing; });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      item.second.wait();
      Req& r = run.reqs[item.first];
      r.done = now_s();
      try {
        std::vector<double> v = item.second.get();
        if (!finite_row(v, 3)) {
          ++run.bad_rows;
        } else if (!expect.empty() && expect[item.first] != nullptr &&
                   std::memcmp(v.data(), expect[item.first]->data(),
                               3 * sizeof(double)) != 0) {
          ++run.mismatches;
        } else {
          r.ok = true;
        }
      } catch (const std::exception&) {
        // shed or failed: r.ok stays false and counts as missing the limit
      }
      ++(r.ok ? run.ok : answered_failed);
    }
  });

  const double epoch = now_s() + 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    Req& r = run.reqs[i];
    r.sched = epoch + arrivals[i].t;
    wait_until(r.sched, false);
    r.s0 = now_s();
    r.lag = r.s0 - r.sched;
    r.origin = r.s0;
    ++run.sent;
    auto fut = front.submit(points[i], i);
    r.s1 = now_s();
    if (!fut) {
      r.done = r.s1;
      ++run.failed;  // refused by admission
      continue;
    }
    {
      std::lock_guard lock(m);
      pending.emplace_back(i, std::move(*fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(m);
    closing = true;
  }
  cv.notify_one();
  collector.join();
  run.failed += answered_failed;
  front.take(run.batches, run.admitted, run.books);
  return run;
}

/// Median over `windows` equal runs of consecutive samples of each one's
/// quantile q (closed loop, samples in time order).
double windowed_quantile(const std::vector<double>& lat, double q, std::size_t windows) {
  std::vector<double> qs;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto b = lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * w / windows);
    const auto e = lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * (w + 1) / windows);
    if (b != e) qs.push_back(quantile(std::vector<double>(b, e), q));
  }
  return qs.empty() ? kInf : median(qs);
}

/// Median over `windows` equal time windows of each window's quantile q:
/// one scheduler hiccup moves one window, not the reported figure.
double windowed_quantile(const std::vector<Req>& reqs, double q, std::size_t windows) {
  if (reqs.empty()) return kInf;
  const double t0 = reqs.front().sched, t1 = reqs.back().sched + 1e-9;
  std::vector<std::vector<double>> w(windows);
  for (const Req& r : reqs) {
    const auto k = std::min<std::size_t>(
        windows - 1, static_cast<std::size_t>((r.sched - t0) / (t1 - t0) * windows));
    w[k].push_back(r.ok ? r.done - r.origin : kInf);
  }
  std::vector<double> qs;
  for (auto& v : w) {
    if (!v.empty()) qs.push_back(quantile(std::move(v), q));
  }
  return median(qs);
}

std::vector<serve::Arrival> schedule(double rate, double seconds,
                                     std::size_t hot_keys, double hot_fraction,
                                     std::uint64_t seed) {
  serve::LoadGenConfig cfg;
  cfg.rate_qps = rate;
  cfg.duration_seconds = seconds;
  cfg.key_pool = std::size_t{1} << 40;
  cfg.hot_keys = hot_keys;
  cfg.hot_fraction = hot_fraction;
  cfg.seed = seed;
  return serve::LoadGenerator(cfg).schedule();
}

/// Quantile q as the median of per-window quantiles over windows of at
/// least 1000 requests (at most 8), so a p99 window has 10 samples beyond it.
double tail(const OpenRun& run, double q) {
  const std::size_t n = run.reqs.size() + run.closed_lat.size();
  const std::size_t windows = std::clamp<std::size_t>(n / 1000, 1, 8);
  return run.reqs.empty() ? windowed_quantile(run.latencies(), q, windows)
                          : windowed_quantile(run.reqs, q, windows);
}

/// A ladder rung's worst margin against the service level:
/// max(p99 / limit, failed share / 1%, last-quarter median / limit).  The
/// rung meets it when this is <= 1: p99 (failures count as missing) within
/// the limit, failures within 1%, and a backlog that does not grow.  The
/// p99 is tail()'s median over windows: the host stalls a vCPU for up to
/// 20 ms several times a second, and one stall in one window would
/// otherwise fail a rung far below the capacity; an overload that lasts
/// still fails it through the growing backlog.
double badness(const OpenRun& run, double limit) {
  const std::vector<double> lat = run.latencies();
  const double p99 = tail(run, 0.99);
  const PhaseCount c = run.count("");
  const double fail = c.sent ? static_cast<double>(c.failed) / c.sent : 1.0;
  const std::vector<double> last_quarter(
      lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * 3 / 4), lat.end());
  return std::max({std::isfinite(p99) ? p99 / limit : 0.0, fail / kMaxFailFrac,
                   std::min(median(last_quarter), 100 * limit) / limit});
}

/// A run's figure from its rounds: the mean of all but the lowest and the
/// highest.  The host switches between a fast and a slow mode (the inline
/// hit path reads 0.4 or 0.6 us) and a run holds a varying mix of both.
/// The best round then flips between the modes when fast rounds are rare,
/// and the median when they are about half; a mean moves only with the
/// mix, and dropping the two ends keeps one stalled round out.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() > 2 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = drop; i + drop < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

/// Where the ladder crosses the service level.  One probe can fail a rung
/// below the capacity (a host stall) or pass one above it, so the crossing
/// is the step that best separates the run's passing probes from its
/// failing ones: the first failing rung `fail` with the fewest probes on
/// the wrong side of it (passes at or above, failures below), the lowest
/// on a tie.  `pass` is the highest probed rung below it.  -1 marks a side
/// without a probed rung.
struct Crossing {
  int pass = -1, fail = -1;
};

Crossing crossing(const std::map<int, std::vector<double>>& badness) {
  std::vector<int> steps;  // fail from this rung up; the last: nothing fails
  for (const auto& [k, v] : badness) steps.push_back(k);
  steps.push_back(std::numeric_limits<int>::max());
  Crossing c;
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (int step : steps) {
    std::size_t wrong = 0;
    for (const auto& [k, v] : badness) {
      for (double b : v) wrong += (k < step) == (b > 1.0);
    }
    if (wrong < fewest) {
      fewest = wrong;
      c.fail = step == steps.back() ? -1 : step;
    }
  }
  for (const auto& [k, v] : badness) {
    if (c.fail < 0 || k < c.fail) c.pass = k;
  }
  return c;
}

/// max_qps_slo: the crossing's passing rung, interpolated in log badness
/// (medians over the rounds) towards its failing rung to where badness is
/// 1, so the figure is continuous rather than a rung label.  Every probed
/// rung passing reports the top one.
double slo_from_rungs(const std::map<int, std::vector<double>>& badness, double base,
                      double ratio) {
  const Crossing c = crossing(badness);
  const auto rate = [&](double k) { return base * std::pow(ratio, k); };
  if (c.fail < 0) return rate(c.pass);
  const double fail_b = std::max(median(badness.at(c.fail)), 1.0);
  if (c.pass < 0) return rate(c.fail) / fail_b;
  const double b0 = std::log(std::clamp(median(badness.at(c.pass)), 1e-6, 1.0));
  const double b1 = std::log(fail_b);
  const double frac = b1 - b0 > 1e-9 ? -b0 / (b1 - b0) : 0.0;
  return rate(c.pass + frac * (c.fail - c.pass));
}

/// Closed loop against a Front: keeps `outstanding` requests in flight for
/// `seconds`; per-request latency is submit to answer.
OpenRun run_closed_front(Front& front,
                         const std::function<std::vector<double>(std::size_t)>& point,
                         double seconds, std::size_t outstanding, std::size_t& next) {
  OpenRun run;
  std::deque<std::pair<double, std::future<std::vector<double>>>> inflight;
  const float inf = std::numeric_limits<float>::infinity();
  front.settle(point(next++));
  const double t0 = now_s(), t_end = t0 + seconds;
  while (now_s() < t_end || !inflight.empty()) {
    // A refused request is not retried until an answer frees a slot.
    while (now_s() < t_end && inflight.size() < outstanding) {
      const double sent = now_s();
      ++run.sent;
      auto fut = front.submit(point(next), next);
      ++next;
      if (!fut) {
        run.closed_lat.push_back(inf);
        ++run.failed;
        break;
      }
      inflight.emplace_back(sent, std::move(*fut));
    }
    if (inflight.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    try {
      const std::vector<double> v = inflight.front().second.get();
      const bool ok = finite_row(v, 3);
      if (!ok) ++run.bad_rows;
      run.closed_lat.push_back(ok ? static_cast<float>(now_s() - inflight.front().first) : inf);
      ++(ok ? run.ok : run.failed);
    } catch (const std::exception&) {
      run.closed_lat.push_back(inf);
      ++run.failed;
    }
    inflight.pop_front();
  }
  run.wall = now_s() - t0;
  front.take(run.batches, run.admitted, run.books);
  return run;
}

// ---------------------------------------------------------------------
// Quality and retraining (every workload)

const std::vector<std::vector<double>>& md_heldout_points() {
  static const std::vector<std::vector<double>> pts{
      {2.7, 1, -1, 0.3, 0.5}, {2.9, 2, -1, 0.4, 0.5},
      {3.0, 1, -1, 0.35, 0.5}, {2.6, 2, -1, 0.3, 0.5}};
  return pts;
}

/// Far out-of-domain probes: inputs the surrogate never saw, with small,
/// cheap-to-simulate ion systems.  The gate must refuse them and the MD
/// fallback must answer.
const std::vector<std::vector<double>>& ood_probes() {
  static const std::vector<std::vector<double>> pts{
      {30.0, 1, -1, 0.01, 0.5}, {60.0, 2, -1, 0.01, 0.5}, {45.0, 3, -1, 0.01, 1.5}};
  return pts;
}

/// Normalized RMSE of MC means against targets: per-output RMSE over the
/// corpus target spread, pooled.
double normalized_rmse(const std::vector<std::vector<double>>& pred,
                       const std::vector<std::vector<double>>& truth,
                       const std::vector<double>& scale) {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      const double e = (pred[i][k] - truth[i][k]) / scale[k];
      s += e * e;
      ++n;
    }
  }
  return std::sqrt(s / static_cast<double>(n));
}

std::vector<double> target_scale(const data::Dataset& corpus) {
  std::vector<double> scale(3, 0.0);
  const tensor::Matrix y = corpus.target_matrix();
  for (std::size_t k = 0; k < 3; ++k) {
    double m = 0.0, s = 0.0;
    for (std::size_t r = 0; r < y.rows(); ++r) m += y(r, k);
    m /= static_cast<double>(y.rows());
    for (std::size_t r = 0; r < y.rows(); ++r) s += (y(r, k) - m) * (y(r, k) - m);
    scale[k] = std::max(1e-9, std::sqrt(s / static_cast<double>(y.rows())));
  }
  return scale;
}

/// The retraining path (T_learn), run in every workload: the
/// RetrainingService default candidate (hidden 32,32, dropout 0.1, Adam,
/// MSE, its default TrainConfig and MC pass count) trained on a seeded
/// 2048-row Latin-hypercube corpus labelled by the served surrogate's
/// dropout-off forward, then MC-scored on 512 held-out rows.
class Retrainer {
 public:
  struct Fit {
    double seconds = 0.0;          // candidate fit + MC shadow score
    double eval_us_per_row = 0.0;  // the MC shadow score alone, per row
    double rmse = 0.0;             // candidate against its held-out labels
  };
  /// Per-epoch split of the same training, replayed one step at a time.
  struct Split {
    double fwd_s = 0.0, bwd_s = 0.0, opt_s = 0.0, steps = 0.0;
  };

  Retrainer(const nn::Network& teacher, std::uint64_t seed) : rng_(mix(seed ^ 0x7e7a1e)) {
    nn::Network label_net = teacher.clone();
    label_net.set_training(false);
    label_net.set_mc_dropout(false);
    const data::ParamSpace space({{"h", 2.4, 3.2}, {"z_p", 1, 2, true}, {"z_n", -1, -1},
                                  {"c", 0.2, 0.5}, {"d", 0.5, 0.5}});
    auto labelled = [&](std::size_t n) {
      const auto pts = data::latin_hypercube_sample(space, n, rng_);
      tensor::Matrix x(n, 5);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = 0; k < 5; ++k) x(r, k) = pts[r][k];
      }
      tensor::Matrix y = label_net.predict_batch(x);
      return data::Dataset(std::move(x), std::move(y));
    };
    corpus_ = labelled(2048);
    held_ = labelled(512);
    held_x_ = held_.input_matrix();
    scale_ = target_scale(corpus_);
    mlp_.input_dim = 5;
    mlp_.hidden = defaults_.hidden;
    mlp_.output_dim = 3;
    mlp_.activation = nn::Activation::kRelu;
    mlp_.dropout_rate = defaults_.dropout_rate;
  }

  /// One candidate from a fresh initialization.
  Fit fit() {
    stats::Rng net_rng = rng_.split(2 * fits_ + 1), fit_rng = rng_.split(2 * fits_ + 2);
    ++fits_;
    Fit f;
    const double t0 = now_s();
    nn::Network net = nn::make_mlp(mlp_, net_rng);
    nn::AdamOptimizer opt(1e-2);
    nn::fit(net, corpus_, nn::MseLoss{}, opt, defaults_.train, fit_rng);
    uq::McDropoutEnsemble cand(std::move(net), defaults_.mc_passes);
    const double t1 = now_s();
    const std::vector<uq::Prediction> preds = cand.predict_batch(held_x_);
    const double t2 = now_s();
    f.seconds = t2 - t0;
    f.eval_us_per_row = (t2 - t1) / static_cast<double>(held_.size()) * 1e6;
    std::vector<std::vector<double>> mean, truth;
    for (std::size_t r = 0; r < held_.size(); ++r) {
      mean.push_back(preds[r].mean);
      const auto row = held_.target(r);
      truth.emplace_back(row.begin(), row.end());
    }
    f.rmse = normalized_rmse(mean, truth, scale_);
    return f;
  }

  /// Five epochs of the same training, forward / backward / optimizer
  /// timed apart; medians per epoch.
  Split replay_split() {
    stats::Rng net_rng = rng_.split(99), shuffle = rng_.split(100);
    nn::Network net = nn::make_mlp(mlp_, net_rng);
    net.set_training(true);
    nn::AdamOptimizer opt(1e-2);
    const nn::MseLoss loss;
    const std::size_t bs = defaults_.train.batch_size, n = corpus_.size();
    std::vector<double> fwd, bwd, optm;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    Split out;
    for (int epoch = 0; epoch < 5; ++epoch) {
      for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[shuffle.index(i)]);
      double f = 0.0, b = 0.0, o = 0.0;
      std::size_t steps = 0;
      for (std::size_t s = 0; s < n; s += bs) {
        const std::size_t m = std::min(bs, n - s);
        tensor::Matrix xb(m, 5), yb(m, 3);
        for (std::size_t r = 0; r < m; ++r) {
          const auto in = corpus_.input(order[s + r]), tg = corpus_.target(order[s + r]);
          for (std::size_t k = 0; k < 5; ++k) xb(r, k) = in[k];
          for (std::size_t k = 0; k < 3; ++k) yb(r, k) = tg[k];
        }
        net.zero_grad();
        const double a = now_s();
        const tensor::Matrix pred = net.forward(xb);
        const nn::LossResult lr = loss.evaluate(pred, yb);
        const double c = now_s();
        net.backward(lr.grad);
        const double d = now_s();
        opt.step(net.parameters());
        const double e = now_s();
        f += c - a;
        b += d - c;
        o += e - d;
        ++steps;
      }
      fwd.push_back(f);
      bwd.push_back(b);
      optm.push_back(o);
      out.steps = static_cast<double>(steps);
    }
    out.fwd_s = median(fwd);
    out.bwd_s = median(bwd);
    out.opt_s = median(optm);
    return out;
  }

 private:
  const retrain::RetrainingConfig defaults_{};
  stats::Rng rng_;
  data::Dataset corpus_{5, 3}, held_{5, 3};
  tensor::Matrix held_x_;
  std::vector<double> scale_;
  nn::MlpConfig mlp_;
  std::uint64_t fits_ = 0;
};

/// The served weights' dropout-off forward by the benchmark's own scalar
/// loop (dense x W + b, tanh; inverted dropout is the identity when off):
/// the exact value the MC mean estimates, whatever kernels serve it.
std::vector<double> reference_forward(const nn::Network& net, const std::vector<double>& x) {
  std::vector<double> a = x;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const nn::Layer& layer = net.layer(l);
    if (const auto* d = dynamic_cast<const nn::DenseLayer*>(&layer)) {
      const tensor::Matrix& w = d->weights();
      std::vector<double> y(d->bias().begin(), d->bias().end());
      for (std::size_t i = 0; i < w.rows(); ++i) {
        for (std::size_t j = 0; j < w.cols(); ++j) y[j] += a[i] * w(i, j);
      }
      a = std::move(y);
    } else if (layer.name() == "activation:tanh") {
      for (double& v : a) v = std::tanh(v);
    } else if (dynamic_cast<const nn::DropoutLayer*>(&layer) == nullptr) {
      throw std::logic_error("reference_forward: unexpected layer " + layer.name());
    }
  }
  return a;
}

/// mc_rmse: the served model's MC means (single-row path) at kHeldout
/// fixed in-domain points the requests never use, against
/// reference_forward.  Also prints how the served model and the
/// corpus-mean constant fare against held-out MD runs: on this 8-run
/// corpus both sit at the MD noise floor, which is why MD is not the
/// reference (README.md).
double served_mc_rmse(uq::UqModel& model, const nn::Network& net, const Trained& t) {
  const std::vector<double> scale = target_scale(t.corpus);
  std::vector<std::vector<double>> pred, ref;
  for (std::uint64_t i = 0; i < kHeldout; ++i) {
    const std::vector<double> x = domain_point(mix(0x4e1d0 + i));
    pred.push_back(model.predict(x).mean);
    ref.push_back(reference_forward(net, x));
  }
  std::vector<double> corpus_mean(3, 0.0);
  for (std::size_t r = 0; r < t.corpus.size(); ++r) {
    for (std::size_t k = 0; k < 3; ++k) {
      corpus_mean[k] += t.corpus.target(r)[k] / static_cast<double>(t.corpus.size());
    }
  }
  std::vector<std::vector<double>> md_pred, md_truth;
  std::uint64_t seed = 1000;
  for (const auto& x : md_heldout_points()) {
    md_truth.push_back(md::run_nanoconfinement(md_params(x, seed++)).targets());
    md_pred.push_back(model.predict(x).mean);
  }
  std::printf("  served model against 4 held-out MD runs: normalized RMSE %.4f "
              "(corpus-mean constant %.4f)\n",
              normalized_rmse(md_pred, md_truth, scale),
              normalized_rmse(std::vector<std::vector<double>>(md_truth.size(), corpus_mean),
                              md_truth, scale));
  return normalized_rmse(pred, ref, scale);
}

// ---------------------------------------------------------------------
// Direct replays of the public layer functions at the served shapes.

void replay_layers(uq::McDropoutEnsemble& served, Report& r) {
  nn::Network net = served.network().clone();
  // Install the served (autotuned) GEMM plans on the replayed copy.
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    auto* src = dynamic_cast<nn::DenseLayer*>(&served.network().layer(i));
    if (auto* dst = dynamic_cast<nn::DenseLayer*>(&net.layer(i)); dst && src) {
      dst->set_infer_plan(src->infer_plan());
    }
  }
  net.set_training(false);
  net.set_mc_dropout(true);
  tensor::Matrix x(kMaxBatch, 5);
  for (std::size_t row = 0; row < kMaxBatch; ++row) {
    const auto p = domain_point(row);
    for (std::size_t k = 0; k < 5; ++k) x(row, k) = p[k];
  }
  static const char* names[] = {"dense0", "act0", "dropout0", "dense1",
                                "act1",   "dropout1", "dense2"};
  const std::size_t layers = std::min<std::size_t>(7, net.layer_count());
  std::vector<std::vector<double>> times(layers);
  std::vector<tensor::Matrix> acts(layers + 1);
  acts[0] = x;
  const int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t l = 0; l < layers; ++l) {
      const double t0 = now_s();
      net.layer(l).infer(acts[l], acts[l + 1]);
      times[l].push_back(now_s() - t0);
    }
  }
  std::vector<double> whole;
  tensor::Matrix y;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    net.predict_batch(x, y);
    whole.push_back(now_s() - t0);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    r.set(std::string("nn.") + names[l] + "_us", median(times[l]) * 1e6, "us");
  }
  r.set("nn.forward_us", median(whole) * 1e6, "us");
  for (std::size_t l = 0, d = 0; l < layers; ++l) {
    auto* dense = dynamic_cast<nn::DenseLayer*>(&net.layer(l));
    if (!dense) continue;
    const double flops = 2.0 * kMaxBatch * dense->input_dim() * dense->output_dim();
    r.set("tensor.dense" + std::to_string(d) + "_gflops",
          flops / median(times[l]) / 1e9, "GFLOP/s");
    ++d;
  }
}

/// encode_frame + decode_frame_header + check_payload on a kQuery-shaped
/// payload of `rows` rows, per frame.
double replay_codec(double rows) {
  net::WireWriter w;
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(rows)));
  w.put_u32(static_cast<std::uint32_t>(n));
  w.put_u32(5);
  for (std::size_t r = 0; r < n; ++r) {
    for (double v : domain_point(r)) w.put_f64(v);
    w.put_f64(std::numeric_limits<double>::quiet_NaN());
  }
  const std::string payload = w.bytes();
  std::vector<double> t;
  for (int rep = 0; rep < 2000; ++rep) {
    const double t0 = now_s();
    const std::string frame = net::encode_frame(net::MsgType::kQuery, payload);
    std::span<const std::uint8_t, net::kFrameHeaderBytes> head(
        reinterpret_cast<const std::uint8_t*>(frame.data()), net::kFrameHeaderBytes);
    const net::FrameHeader h = net::decode_frame_header(head);
    net::check_payload(h, std::string_view(frame).substr(net::kFrameHeaderBytes));
    t.push_back(now_s() - t0);
  }
  return median(t) * 1e6;
}

// ---------------------------------------------------------------------
// Workload profiles: fixed rates and latency limits, sized for a 4-core host.

struct Profile {
  double light_qps, heavy_qps;  // fixed open-loop rates
  double limit_s;               // p99 latency limit
  double ladder_base, ladder_ratio;
  int rungs;
  std::size_t hot_keys;  // keys [0, hot_keys) are grid corners
  double hot_fraction;
};

Profile profile(const std::string& w) {
  if (w == "uq-open") return {2500, 5000, 0.050, 1000, 1.04, 120, 0, 0.0};
  return {0, 250000, 0.010, 20000, 1.04, 120, kGridSize, 0.996};  // sweep-inline
}

/// A run is kRounds rounds; each round runs every phase once, so every
/// metric samples the whole run rather than one stretch of it, and each is
/// reported as a trimmed mean over the rounds (trimmed_mean) or, for the
/// ladder, from the pooled probes (slo_from_rungs).  Slice
/// lengths are shares of --seconds S spread over the rounds (all rounds
/// together take about 0.85 S); each round's candidate fit, about a
/// second, comes on top.
constexpr int kRounds = 8;
struct Slices {
  double closed, light, heavy, rung;
  Slices(double s, bool inline_loop)
      : closed((inline_loop ? 0.27 : 0.15) * s / kRounds), light(0.2 * s / kRounds),
        heavy(0.15 * s / kRounds), rung(0.0575 * s / kRounds) {}
};

std::vector<std::vector<double>> points_for(const std::vector<serve::Arrival>& a,
                                            std::size_t hot_keys, std::uint64_t salt) {
  std::vector<std::vector<double>> pts;
  pts.reserve(a.size());
  for (const serve::Arrival& x : a) {
    pts.push_back(x.key < hot_keys ? grid_point(x.key) : domain_point(x.key ^ salt));
  }
  return pts;
}

/// Shared by every workload: latency metrics of one open-loop phase.
void account_open(const OpenRun& run, const std::string& name, Report& r,
                  bool counted = true) {
  PhaseCount c = run.count(name);
  c.counted = counted;
  r.phase(c);
  if (counted) {
    for (const Req& q : run.reqs) r.lags.push_back(static_cast<float>(q.lag));
  }
  const std::vector<double> lat = run.latencies();
  std::printf("        latency us: p50 %.4g p75 %.4g p90 %.4g p95 %.4g p99 %.4g p99.9 %.4g; lag p99 %.4g\n",
              quantile(lat, 0.5) * 1e6, quantile(lat, 0.75) * 1e6, quantile(lat, 0.9) * 1e6,
              quantile(lat, 0.95) * 1e6, quantile(lat, 0.99) * 1e6, quantile(lat, 0.999) * 1e6,
              run.lag_p99() * 1e6);
  r.bad_rows += run.bad_rows;
  r.mismatches += run.mismatches;
  if (run.bad_rows || run.mismatches) {
    std::printf("  phase %s: %llu non-finite/misshapen rows, %llu cached-repeat mismatches\n",
                name.c_str(), static_cast<unsigned long long>(run.bad_rows),
                static_cast<unsigned long long>(run.mismatches));
  }
}

/// Per-layer attribution of one traced open-loop phase.  A request's
/// stages: generator lag, submit (admission + enqueue), queue wait, its
/// batch's stack call (core self + uq on uq-open, the router's round trip
/// on the net path) and delivery (the answer's way back through the future
/// to the collector).  What is left of its end-to-end time -- the forward
/// closure's own glue, and any request without a batch -- is the
/// residual.  The same pass cross-checks the mapping: an answered request
/// needs a batch that started after it was sent and ended before it was
/// delivered; nested spans must nest (uq inside the dispatcher's booking
/// inside the call, the slowest worker's own time inside the round trip);
/// and the slice's batches and rows must equal the BatchQueue's counters.
void attribute_open(const OpenRun& run, Layers& L, TraceSink& sink, std::uint64_t& next_id,
                    bool shards) {
  L.front = true;
  std::vector<const BatchRec*> batch_of(run.reqs.size(), nullptr);
  std::uint64_t batch_id = next_id;
  std::size_t rows = 0;
  for (const BatchRec& b : run.batches) {
    rows += b.rows;
    for (std::size_t k = 0; k < b.rows; ++k) {
      const std::size_t slot = b.first + k;
      if (slot < run.admitted.size()) batch_of[run.admitted[slot]] = &b;
    }
    L.batch_rows.push_back(static_cast<double>(b.rows));
    L.closure_s += b.f1 - b.f0;
    const double call = b.call1 - b.call0;
    if (!(b.f0 <= b.call0 && b.call1 <= b.f1)) ++L.acausal;
    if (shards) {
      L.rtt.push_back(call);
      L.worker.push_back(b.worker_s);
      L.wire.push_back(call - b.worker_s);
      if (b.worker_s > call) ++L.acausal;
      double mx = 0.0, sum = 0.0;
      for (std::size_t s : b.per_shard) {
        if (s == 0) continue;
        L.shard_rows.push_back(static_cast<double>(s));
        mx = std::max(mx, static_cast<double>(s));
        sum += static_cast<double>(s);
      }
      L.imbalance.push_back(sum > 0 ? mx / (sum / static_cast<double>(b.per_shard.size())) : 1.0);
    } else {
      L.batch_self_s += call - b.uq_s;
      L.batch_uq_s += b.uq_s;
      L.batch_uq_rows += static_cast<double>(b.rows);
      if (!(b.uq_s <= b.booked_s && b.booked_s <= call)) ++L.acausal;
    }
    if (batch_id - next_id < kTraceRequests / 8) {
      sink.add("serve.forward", b.f0, b.f1, 2, batch_id, true);
      sink.add(shards ? "net.query_batch" : "core.query_batch", b.call0, b.call1, 2, batch_id,
               true);
      if (!shards && b.inner1 > b.inner0) {
        sink.add("uq.predict_batch", b.inner0, b.inner1, 2, batch_id, true);
      }
    }
    ++batch_id;
  }
  L.queue_forward_s += run.books.forward_s;
  if (run.books.batches != run.batches.size() || run.books.queries != rows ||
      rows != run.admitted.size()) {
    ++L.miscounted;
  }
  for (std::size_t i = 0; i < run.reqs.size(); ++i) {
    const Req& q = run.reqs[i];
    L.lag.push_back(q.lag);
    if (!q.ok) continue;
    L.e2e_sum += q.done - q.sched;
    const BatchRec* b = batch_of[i];
    if (b == nullptr) {
      ++L.unmapped;
      continue;
    }
    ++L.mapped;
    if (!(q.s0 <= b->f0 && b->f1 <= q.done)) ++L.acausal;
    const double lag = q.s0 - q.sched, submit = q.s1 - q.s0, wait = b->f0 - q.s1;
    const double call = b->call1 - b->call0, deliver = q.done - b->f1;
    L.queue_wait.push_back(wait);
    L.deliver.push_back(deliver);
    L.stage_sum += lag + submit + wait + call + deliver;
    L.busy_sum += submit + call;
    L.uq_sum += b->uq_s;
    const std::uint64_t id = next_id + i;
    if (i < kTraceRequests) {
      sink.add("request", q.sched, q.done, 1, id);
      sink.add("serve.loadgen_lag", q.sched, q.s0, 1, id);
      sink.add("serve.submit", q.s0, q.s1, 1, id);
      sink.add("serve.queue_wait", q.s1, b->f0, 2, id);
      sink.add(shards ? "net.rtt" : "core.query_batch", b->call0, b->call1, 2, id);
      sink.add("serve.deliver", b->f1, q.done, 3, id);
    }
  }
  next_id = batch_id + run.reqs.size();
}

/// The reconciliation of a traced run (or of its net sub-run).  Stage self
/// times must sum to the traced end-to-end time within kReconTolerance;
/// every answered request must have its spans, in causal order and nested;
/// and where requests went through BatchQueue, its own counters must match
/// the batch mapping and its own batch clock the forward spans (which sit
/// inside it, so they may fall short of it only by the call overhead).
/// Returns the residual.
double reconcile(const Layers& L, Report& r, const std::string& what) {
  const double residual = L.e2e_sum > 0 ? 1.0 - L.stage_sum / L.e2e_sum : 1.0;
  std::printf("  %s: residual %.4f; %llu requests mapped, %llu unmapped, %llu acausal spans\n",
              what.c_str(), residual, static_cast<unsigned long long>(L.mapped),
              static_cast<unsigned long long>(L.unmapped),
              static_cast<unsigned long long>(L.acausal));
  r.check(L.mapped > 0 && L.unmapped == 0 && L.acausal == 0,
          what + ": every request mapped, spans causal and nested");
  if (!L.front) {
    r.check(L.mapped == L.stack_answers, what + ": one dispatcher answer per traced request");
  } else {
    const double share = L.queue_forward_s > 0 ? L.closure_s / L.queue_forward_s : 0.0;
    std::printf("  %s: forward spans %.6f s against BatchQueue's own %.6f s (%.4f)\n",
                what.c_str(), L.closure_s, L.queue_forward_s, share);
    r.check(L.miscounted == 0, what + ": batches and rows match BatchQueue's counters");
    r.check(share <= 1.0 && share >= 1.0 - kReconTolerance,
            what + ": forward spans within 5% of BatchQueue's clock");
  }
  r.check(std::fabs(residual) <= kReconTolerance, what + ": stages reconcile within 5%");
  return residual;
}

void finish_layers(const Layers& L, Report& r, const Front* front) {
  auto us = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : quantile(v, q) * 1e6;
  };
  r.set("serve.queue_wait_p50_us", us(L.queue_wait, 0.5), "us");
  r.set("serve.queue_wait_p99_us", us(L.queue_wait, 0.99), "us");
  r.set("serve.batch_rows_mean", mean(L.batch_rows), "rows");
  r.set("serve.loadgen_lag_p99_us", us(L.lag, 0.99), "us");
  double shed = 0.0;
  if (front) {
    const serve::AdmissionStats a = front->admission();
    const double total = static_cast<double>(a.admitted + a.shed_total());
    shed = total > 0 ? static_cast<double>(a.shed_total()) / total : 0.0;
  }
  r.set("serve.admission_shed_frac", shed, "ratio");
  r.set("core.batch_self_us_per_row",
        L.batch_uq_rows > 0 ? L.batch_self_s / L.batch_uq_rows * 1e6 : 0.0, "us");
  r.set("uq.batch_us_per_row",
        L.batch_uq_rows > 0 ? L.batch_uq_s / L.batch_uq_rows * 1e6 : 0.0, "us");
  r.set("core.hit_us_p50", us(L.hit, 0.5), "us");
  r.set("core.miss_self_us_p50", us(L.miss_self, 0.5), "us");
  r.set("uq.predict_us_p50", us(L.predict, 0.5), "us");
  r.set("uq.share_frac", L.busy_sum > 0 ? L.uq_sum / L.busy_sum : 0.0, "ratio");
  r.set("serve.deliver_us_p50", us(L.deliver, 0.5), "us");
  r.set("trace.recon_residual_frac", reconcile(L, r, "trace"), "ratio");
}

// ---------------------------------------------------------------------
// The workloads

/// Times `kSetups` complete set-ups; returns the last one (the one that
/// serves) and reports the fastest.
template <class S, class Make>
std::unique_ptr<S> timed_setups(Report& r, bool trace, Make make) {
  std::vector<double> times;
  std::unique_ptr<S> s;
  const std::size_t n = trace ? 1 : kSetups;
  for (std::size_t i = 0; i < n; ++i) {
    s.reset();
    const double t0 = now_s();
    s = make();
    times.push_back(now_s() - t0);
  }
  r.set("setup_s", trimmed_mean(times), "s");
  std::printf("  setup_s %.4f (middle of %zu); peak RSS so far %.1f MB\n", trimmed_mean(times),
              n, self_peak_kb() / 1024.0);
  return s;
}

/// Section III-D S_eff of this run: set-up MD runs are N_train / T_train
/// and T_seq, set-up training is T_learn, timed answers are N_lookup.
double run_s_eff(const Trained& t, std::uint64_t n_lookup, double lookup_seconds) {
  obs::EffectiveSpeedupMeter::Snapshot s;
  s.n_lookup = n_lookup;
  s.lookup_seconds = lookup_seconds;
  s.n_train = t.md_seconds.size();
  s.seq_samples = t.md_seconds.size();
  for (double x : t.md_seconds) {
    s.train_seconds += x;
    s.seq_seconds += x;
  }
  s.learn_seconds = t.learn_seconds;
  return s.speedup();
}

/// Quality checks, T_learn and (traced) the replayed layers, after the
/// rounds.  `fits` are the candidate fits the rounds made.
void common_tail(Report& r, const Options& o, const Trained& t, uq::UqModel& served,
                 uq::McDropoutEnsemble& ens, Retrainer& retrainer,
                 std::vector<Retrainer::Fit> fits) {
  if (fits.empty()) fits.push_back(retrainer.fit());
  std::vector<double> seconds, eval, rmses;
  std::printf("  retrain: candidate mc_rmse");
  for (const Retrainer::Fit& f : fits) {
    seconds.push_back(f.seconds);
    eval.push_back(f.eval_us_per_row);
    rmses.push_back(f.rmse);
    std::printf(" %.4f", f.rmse);
  }
  // One fit in a few dozen lands near 0.4; a broken trainer moves them all.
  std::printf("; median %.4f; t_learn %.4f s (trimmed mean of %zu)\n", median(rmses),
              trimmed_mean(seconds), seconds.size());
  r.set("t_learn_s", trimmed_mean(seconds), "s");
  r.check(median(rmses) <= kCandidateRmseBound, "retrain candidates' median mc_rmse within bound");
  const double rmse = served_mc_rmse(served, ens.network(), t);
  r.set("mc_rmse", rmse, "normalized");
  r.check(rmse <= kServedRmseBound, "served mc_rmse within bound");
  r.check(ens.forward_passes() == kPasses, "McDropoutEnsemble::forward_passes() == 32");
  if (o.trace) {
    const Retrainer::Split sp = retrainer.replay_split();
    r.set("uq.eval_us_per_row", median(eval), "us");
    r.set("nn.train.forward_s", sp.fwd_s, "s");
    r.set("nn.train.backward_s", sp.bwd_s, "s");
    r.set("nn.train.optimizer_s", sp.opt_s, "s");
    r.set("nn.train.steps", sp.steps, "count");
    r.set("md.sim_s", mean(t.md_seconds), "s");
    replay_layers(ens, r);
  }
  // The whole run's peak, read last: set-up, serving, retraining and (in a
  // traced run) the net sub-run's reaped workers.
  r.set("peak_rss_mb", (self_peak_kb() + children_peak_kb()) / 1024.0, "MB");
}

void ood_check(Report& r, const std::function<bool(const std::vector<double>&)>& answered_by_md) {
  bool all = true;
  for (const auto& x : ood_probes()) all = answered_by_md(x) && all;
  r.check(all, "far out-of-domain probes gated to MD");
}

/// The ladder rungs the first round probes: eight rungs three apart
/// (a factor 1.125 at ratio 1.04), from about 0.53 to 1.2 x the closed-loop
/// capacity, so the crossing is bracketed whatever the speed of the code.
std::vector<int> coarse_rungs(const Profile& pf, double capacity) {
  const int lo = std::clamp(
      static_cast<int>(std::lround(std::log(0.53 * capacity / pf.ladder_base) /
                                   std::log(pf.ladder_ratio))),
      0, pf.rungs - 22);
  std::vector<int> ks;
  for (int j = 0; j < 8; ++j) ks.push_back(lo + 3 * j);
  return ks;
}

/// The rungs a later round probes: every rung of the crossing the rounds
/// so far found (its passing rung and the three above), plus one coarse
/// step either side in case it is still off.
std::vector<int> fine_rungs(const Profile& pf, const std::map<int, std::vector<double>>& badness) {
  const Crossing c = crossing(badness);
  const int a = c.pass >= 0 ? c.pass : c.fail - 3;
  std::vector<int> ks;
  for (int k : {a - 3, a, a + 1, a + 2, a + 3, a + 6}) {
    if (k >= 0 && k < pf.rungs) ks.push_back(k);
  }
  return ks;
}

// ---- the rounds every workload runs ----------------------------------

/// The workload-specific halves of a run, driven by run_rounds.
struct WorkloadOps {
  /// One closed-loop slice of `seconds`.
  std::function<OpenRun(double seconds)> closed;
  /// One open-loop slice at `rate` for `seconds`, its schedule from `seed`.
  std::function<OpenRun(double rate, double seconds, std::uint64_t seed)> open;
  /// Turns the workload's tracing (decorator timing, batch mapping) on or off.
  std::function<void(bool)> set_trace;
  /// Folds a traced slice into the per-layer accumulators.
  std::function<void(const OpenRun&)> attribute;
  /// The closed slice is the light point (sweep-inline's one caller).
  bool closed_is_light = false;
};

/// kRounds rounds of closed, light, heavy and ladder slices (traced runs:
/// closed, light untraced, light traced, heavy traced); every end-to-end
/// latency and throughput metric is a trimmed mean over the rounds.
std::vector<Retrainer::Fit> run_rounds(const Options& o, const Profile& pf, Report& r,
                                       const WorkloadOps& d, Retrainer& retrainer) {
  std::vector<Retrainer::Fit> fits;
  const Slices sl(o.seconds, d.closed_is_light);
  std::vector<double> qps, p50, p90, p99, p90h, p99h, p50_plain, p50_traced;
  std::map<int, std::vector<double>> bad;  // ladder rung -> badness per round
  std::uint64_t seed = 1;
  auto light_slice = [&](const OpenRun& closed, const char* name) {
    if (d.closed_is_light) return closed;
    OpenRun run = d.open(pf.light_qps, sl.light, seed++);
    account_open(run, name, r);
    return run;
  };
  for (int round = 0; round < kRounds; ++round) {
    const OpenRun closed = d.closed(sl.closed);
    account_open(closed, "closed", r);
    qps.push_back(static_cast<double>(closed.count("").ok) / closed.wall);
    if (o.trace) {
      p50_plain.push_back(quantile(light_slice(closed, "light").latencies(), 0.5));
      d.set_trace(true);
      const OpenRun traced = d.closed_is_light ? d.closed(sl.closed)
                                               : d.open(pf.light_qps, sl.light, seed++);
      account_open(traced, d.closed_is_light ? "closed-traced" : "light-traced", r);
      p50_traced.push_back(quantile(traced.latencies(), 0.5));
      d.attribute(traced);
      const OpenRun heavy = d.open(pf.heavy_qps, sl.heavy, seed++);
      account_open(heavy, "heavy-traced", r);
      d.attribute(heavy);
      d.set_trace(false);
      continue;
    }
    const OpenRun light = light_slice(closed, "light");
    p50.push_back(quantile(light.latencies(), 0.5));
    p90.push_back(tail(light, 0.9));
    p99.push_back(tail(light, 0.99));
    const OpenRun heavy = d.open(pf.heavy_qps, sl.heavy, seed++);
    account_open(heavy, "heavy", r);
    p90h.push_back(tail(heavy, 0.9));
    p99h.push_back(tail(heavy, 0.99));
    // The crossing is re-found every round from all probes so far, so a
    // first round hit by a host stall cannot misplace the fine probes.
    const std::vector<int> rungs = round == 0 ? coarse_rungs(pf, qps[0]) : fine_rungs(pf, bad);
    for (int k : rungs) {
      const double rate = pf.ladder_base * std::pow(pf.ladder_ratio, k);
      const OpenRun g = d.open(rate, sl.rung, seed++);
      char name[48];
      std::snprintf(name, sizeof name, "rung@%.0f", rate);
      account_open(g, name, r, false);
      bad[k].push_back(badness(g, pf.limit_s));
    }
    fits.push_back(retrainer.fit());
  }
  if (o.trace) {
    r.set("trace.overhead_frac", trimmed_mean(p50_traced) / trimmed_mean(p50_plain) - 1.0,
          "ratio");
    return fits;
  }
  for (const auto& [k, v] : bad) {
    std::printf("  rung %.0f/s: median badness %.3f over %zu rounds\n",
                pf.ladder_base * std::pow(pf.ladder_ratio, k), median(v), v.size());
  }
  r.set("qps", trimmed_mean(qps), "1/s");
  r.set("p50_us", trimmed_mean(p50) * 1e6, "us");
  // Tails are printed, not reported as metrics: on a host that preempts
  // vCPUs for milliseconds several times a second they measure the host
  // and swing by more than any usable bound between runs (README.md).
  std::printf("  tails (median over rounds): light p90 %.1f p99 %.1f us, heavy p90 %.1f "
              "p99 %.1f us\n",
              median(p90) * 1e6, median(p99) * 1e6, median(p90h) * 1e6, median(p99h) * 1e6);
  r.set("max_qps_slo", slo_from_rungs(bad, pf.ladder_base, pf.ladder_ratio), "1/s");
  return fits;
}

// ---- uq-open ---------------------------------------------------------

struct OpenStack {
  Trained trained;
  std::unique_ptr<Served> served;
  std::unique_ptr<Front> front;
};

void uq_open(const Options& o, Report& r) {
  const Profile pf = profile(o.workload);
  auto s = timed_setups<OpenStack>(r, o.trace, [&] {
    auto st = std::make_unique<OpenStack>();
    st->trained = train_surrogate();
    st->served = make_served(st->trained.net, o.inject_uq);
    Served* sv = st->served.get();
    st->front = std::make_unique<Front>(
        [sv](const tensor::Matrix& in, tensor::Matrix& out,
             std::span<serve::ShedReason> shed, BatchRec& rec) {
          const std::uint64_t calls = sv->model->calls;
          rec.call0 = now_s();
          const std::vector<core::Answer> a = sv->dispatcher->query_batch(in);
          rec.call1 = now_s();
          if (sv->model->calls != calls) {
            rec.inner0 = sv->model->last_t0;
            rec.inner1 = sv->model->last_t1;
            rec.uq_s = rec.inner1 - rec.inner0;
          }
          for (std::size_t i = 0; i < a.size(); ++i) {
            rec.booked_s += a[i].seconds;
            if (a[i].source == core::AnswerSource::kShed || a[i].values.size() != 3) {
              shed[i] = a[i].shed_reason == serve::ShedReason::kNone
                            ? serve::ShedReason::kOverload : a[i].shed_reason;
              continue;
            }
            for (std::size_t k = 0; k < 3; ++k) out(i, k) = a[i].values[k];
          }
        });
    // Warm the serving path (allocations, kernel plans) with fixed keys.
    std::vector<std::future<std::vector<double>>> warm;
    for (std::size_t i = 0; i < 4 * kMaxBatch; ++i) {
      if (auto f = st->front->submit(domain_point(~i), i)) warm.push_back(std::move(*f));
    }
    for (auto& f : warm) f.get();
    return st;
  });
  record_plans(r, s->served->plans);
  core::SurrogateDispatcher& d = *s->served->dispatcher;
  ood_check(r, [&](const std::vector<double>& x) {
    const core::Answer a = d.query(x);
    return a.source == core::AnswerSource::kSimulation && finite_row(a.values, 3);
  });
  const core::DispatcherStats before = d.stats();
  const std::uint64_t salt = mix(o.seed);
  TraceSink sink;
  Layers L;
  std::uint64_t next_id = 1;
  std::size_t closed_next = 0;

  WorkloadOps ops;
  // 96 in flight: a full batch in service and half of the next one
  // queued.  With two full batches every queued request waits a whole
  // batch time, about the admission controller's 5 ms sojourn target, and
  // on a slow stretch of the host the controller sheds the closed loop.
  ops.closed = [&](double seconds) {
    return run_closed_front(
        *s->front, [&](std::size_t i) { return domain_point(mix(salt + i)); }, seconds,
        3 * kMaxBatch / 2, closed_next);
  };
  ops.open = [&](double rate, double seconds, std::uint64_t seed) {
    const auto arr = schedule(rate, seconds, 0, 0.0, mix(o.seed * 4096 + seed));
    return run_open(*s->front, arr, points_for(arr, 0, salt), {});
  };
  ops.set_trace = [&](bool on) {
    s->served->model->set_timing(on);
    s->front->set_trace(on);
  };
  ops.attribute = [&](const OpenRun& run) { attribute_open(run, L, sink, next_id, false); };
  Retrainer retrainer(s->trained.net, o.seed);
  const std::vector<Retrainer::Fit> fits = run_rounds(o, pf, r, ops, retrainer);
  const core::DispatcherStats after = d.stats();

  // Cached repeat (untimed): new keys answered through the queue, then
  // re-asked straight at the dispatcher, must come back from the cache
  // bit for bit.
  std::vector<std::vector<double>> pts, first;
  std::vector<std::future<std::vector<double>>> futs;
  s->front->settle(domain_point(mix(salt ^ 0x5e771e)));
  for (std::size_t i = 0; i < 32; ++i) {
    pts.push_back(domain_point(mix(salt ^ 0xcac4e) + i));
    if (auto f = s->front->submit(pts.back(), i)) futs.push_back(std::move(*f));
  }
  for (auto& f : futs) first.push_back(f.get());
  bool same = first.size() == pts.size();
  for (std::size_t i = 0; same && i < pts.size(); ++i) {
    const core::Answer a = d.query(pts[i]);
    same = a.from_cache && a.values.size() == 3 &&
           std::memcmp(a.values.data(), first[i].data(), 3 * sizeof(double)) == 0;
  }
  if (!same) ++r.mismatches;

  const std::uint64_t answers = after.total() - before.total();
  r.set("s_eff", run_s_eff(s->trained, answers, after.surrogate_seconds - before.surrogate_seconds),
        "x");
  if (o.trace) {
    Served& sv = *s->served;
    finish_layers(L, r, s->front.get());
    const double n = static_cast<double>(std::max<std::uint64_t>(answers, 1));
    r.set("serve.cache_hit_frac", (after.cache_hits - before.cache_hits) / n, "ratio");
    r.set("core.fallback_frac", (after.simulation_answers - before.simulation_answers) / n, "ratio");
    r.set("core.shed_frac", (after.shed_total() - before.shed_total()) / n, "ratio");
    r.set("uq.rows_per_call",
          sv.model->calls ? static_cast<double>(sv.model->rows) / sv.model->calls : 0.0, "rows");
    r.set("uq.mean_spread", sv.model->rows ? sv.model->spread_sum / sv.model->rows : 0.0,
          "stddev");
    // No request of this workload crosses the wire: no time in the net layer.
    for (const char* m : {"net.rtt_us_p50", "net.rtt_us_p99", "net.worker_us_p50",
                          "net.wire_us_p50", "net.codec_us_per_frame"}) {
      r.set(m, 0.0, "us");
    }
    r.set("net.rows_per_call", 0.0, "rows");
    r.set("net.shard_imbalance", 0.0, "ratio");
    r.set("net.worker_down_frac", 0.0, "ratio");
    sink.write(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json",
               r.fingerprint);
  }
  common_tail(r, o, s->trained, *s->served->model, s->served->model->inner(), retrainer, fits);
}

// ---- sweep-inline ----------------------------------------------------

void net_layers(const Options& o, Report& r);  // net sub-run section

struct InlineStack {
  Trained trained;
  std::unique_ptr<Served> served;
  std::vector<std::vector<double>> first;  // first-served answer per grid corner
};

/// One request key of the sweep: a grid corner (most) or a new in-domain
/// point (a seeded `1 - hot_fraction` share).
struct SweepKey {
  std::vector<double> x;
  std::int64_t grid = -1;
};

/// Poisson arrivals for the inline loop, drawn as the loop goes (the
/// LoadGenerator's rule: exponential gaps, a key from the hot set with
/// probability hot_fraction), so the generator holds no schedule and its
/// memory does not grow with the rate.
struct PoissonStream {
  double rate;
  std::size_t hot_keys;
  double hot_fraction;
  stats::Rng rng;
  double t = 0.0;

  serve::Arrival next() {
    t += rng.exponential(rate);
    const std::size_t key = rng.bernoulli(hot_fraction)
                                ? rng.index(hot_keys)
                                : hot_keys + rng.index(std::size_t{1} << 40);
    return {t, key};
  }
};

/// The inline loop keeps every kSampleEvery-th request's record (a slice
/// can hold 500k requests); counts and checks cover every request.
constexpr std::size_t kSampleEvery = 64;

/// Inline serving: this thread is both the users and the caller of
/// SurrogateDispatcher::query(), for `seconds`.  Closed loop (`open`
/// null): each request is due when the previous one returns.  Open loop:
/// request i is due at its arrival time, and one that finds the caller
/// busy waits — that wait is part of its latency.
OpenRun run_inline(InlineStack& s, const std::function<SweepKey(std::size_t)>& key,
                   PoissonStream* open, double seconds, bool trace, Layers& L,
                   TraceSink& sink, std::uint64_t& next_id) {
  OpenRun run;
  core::SurrogateDispatcher& d = *s.served->dispatcher;
  TimedUq& model = *s.served->model;
  TimedSimulation& sim = s.served->sim;
  const double epoch = now_s() + 1e-3;
  const double t_end = (open ? epoch : now_s()) + seconds;
  double prev_end = 0.0;
  std::size_t n_done = 0;
  serve::Arrival arrival = open ? open->next() : serve::Arrival{};
  for (std::size_t i = 0;; ++i) {
    Req q;
    if (open) {
      q.sched = epoch + arrival.t;
      if (q.sched >= t_end) break;
    } else if (now_s() >= t_end) {
      break;
    }
    const SweepKey k = key(open ? arrival.key : i);
    if (open) {
      wait_until(q.sched, true);
      arrival = open->next();
    } else {
      q.sched = now_s();
    }
    const std::uint64_t uq_calls = model.calls, sim_calls = sim.calls;
    q.s0 = now_s();
    const core::Answer a = d.query(k.x);
    q.done = q.s1 = now_s();
    q.origin = q.sched;
    q.ok = a.source != core::AnswerSource::kShed && finite_row(a.values, 3);
    if (!q.ok) ++run.bad_rows;
    if (q.ok && k.grid >= 0 && a.from_cache &&
        std::memcmp(a.values.data(), s.first[static_cast<std::size_t>(k.grid)].data(),
                    3 * sizeof(double)) != 0) {
      ++run.mismatches;
      q.ok = false;
    }
    ++run.sent;
    ++(q.ok ? run.ok : run.failed);
    if (open) q.lag = q.s0 - std::max(q.sched, prev_end);
    prev_end = q.s1;
    if (trace) {
      L.lag.push_back(q.lag);
      const double uq = model.calls != uq_calls ? model.last_t1 - model.last_t0 : 0.0;
      const double md = sim.calls != sim_calls ? sim.last_seconds : 0.0;
      const double call = q.s1 - q.s0;
      if (a.from_cache) L.hit.push_back(call);
      else L.miss_self.push_back(call - uq - md);
      if (uq > 0.0) L.predict.push_back(uq);
      // The dispatcher's own booking of the answer must sit inside the
      // call and hold the nested uq and MD time.
      ++L.mapped;
      if (!(uq + md <= a.seconds && a.seconds <= call)) ++L.acausal;
      L.stage_sum += (q.s0 - q.sched) + (call - uq - md) + uq + md;
      L.busy_sum += call;
      L.uq_sum += uq;
      L.e2e_sum += q.done - q.sched;
      if (n_done < kTraceRequests) {
        const std::uint64_t id = next_id + n_done;
        sink.add("request", q.sched, q.done, 1, id);
        if (q.s0 > q.sched) sink.add("serve.wait", q.sched, q.s0, 1, id);
        sink.add(a.from_cache ? "core.query_hit" : "core.query", q.s0, q.s1, 1, id);
        if (uq > 0.0) sink.add("uq.predict", model.last_t0, model.last_t1, 1, id);
      }
    }
    if (n_done % kSampleEvery == 0) {
      if (open) run.reqs.push_back(q);
      else run.closed_lat.push_back(q.ok ? static_cast<float>(q.done - q.sched)
                                         : std::numeric_limits<float>::infinity());
    }
    ++n_done;
  }
  next_id += n_done;
  run.wall = now_s() - (epoch - 1e-3);
  return run;
}

void sweep_inline(const Options& o, Report& r) {
  const Profile pf = profile(o.workload);
  auto s = timed_setups<InlineStack>(r, o.trace, [&] {
    auto st = std::make_unique<InlineStack>();
    st->trained = train_surrogate();
    st->served = make_served(st->trained.net, o.inject_uq);
    // Warm the cache with the whole sweep grid; remember what was served.
    st->first.resize(kGridSize);
    for (std::size_t g = 0; g < kGridSize; ++g) {
      st->first[g] = st->served->dispatcher->query(grid_point(g)).values;
    }
    return st;
  });
  record_plans(r, s->served->plans);
  core::SurrogateDispatcher& d = *s->served->dispatcher;
  ood_check(r, [&](const std::vector<double>& x) {
    const core::Answer a = d.query(x);
    return a.source == core::AnswerSource::kSimulation && finite_row(a.values, 3);
  });
  const core::DispatcherStats before = d.stats();
  const std::uint64_t salt = mix(o.seed);
  // Closed-loop keys: a seeded stream, grid corner unless the draw lands in
  // the new-point share.  Open-loop keys come from the LoadGenerator
  // (keys below kGridSize are grid corners).
  std::size_t closed_next = 0;
  auto closed_key = [&](std::size_t i) {
    const std::uint64_t h = mix(salt ^ ((closed_next + i) * 0x9e37ULL + 1));
    if (unit(h) < pf.hot_fraction) {
      const std::size_t g = mix(h) % kGridSize;
      return SweepKey{grid_point(g), static_cast<std::int64_t>(g)};
    }
    return SweepKey{domain_point(h), -1};
  };
  auto open_key = [&](std::size_t key) {
    if (key < kGridSize) return SweepKey{grid_point(key), static_cast<std::int64_t>(key)};
    return SweepKey{domain_point(key ^ salt), -1};
  };
  TraceSink sink;
  Layers L;
  std::uint64_t next_id = 1;
  bool tracing = false;

  WorkloadOps ops;
  ops.closed_is_light = true;
  ops.closed = [&](double seconds) {
    OpenRun run = run_inline(*s, closed_key, nullptr, seconds, tracing, L, sink, next_id);
    closed_next += run.sent;
    return run;
  };
  ops.open = [&](double rate, double seconds, std::uint64_t seed) {
    PoissonStream arrivals{rate, kGridSize, pf.hot_fraction, stats::Rng(mix(o.seed * 4096 + seed))};
    return run_inline(*s, open_key, &arrivals, seconds, tracing, L, sink, next_id);
  };
  std::uint64_t traced_from = 0;
  ops.set_trace = [&](bool on) {
    tracing = on;
    s->served->model->set_timing(on);
    const std::uint64_t answered = d.stats().total();
    if (on) traced_from = answered;
    else L.stack_answers += answered - traced_from;
  };
  ops.attribute = [](const OpenRun&) {};  // run_inline attributes as it serves
  Retrainer retrainer(s->trained.net, o.seed);
  const std::vector<Retrainer::Fit> fits = run_rounds(o, pf, r, ops, retrainer);

  const core::DispatcherStats after = d.stats();
  const std::uint64_t answers = after.total() - before.total();
  r.set("s_eff", run_s_eff(s->trained, answers, after.surrogate_seconds - before.surrogate_seconds),
        "x");
  if (o.trace) {
    TimedUq& m = *s->served->model;
    finish_layers(L, r, nullptr);
    const double n = static_cast<double>(std::max<std::uint64_t>(answers, 1));
    r.set("serve.cache_hit_frac", (after.cache_hits - before.cache_hits) / n, "ratio");
    r.set("core.fallback_frac", (after.simulation_answers - before.simulation_answers) / n, "ratio");
    r.set("core.shed_frac", (after.shed_total() - before.shed_total()) / n, "ratio");
    r.set("uq.rows_per_call", m.calls ? static_cast<double>(m.rows) / m.calls : 0.0, "rows");
    r.set("uq.mean_spread", m.rows ? m.spread_sum / m.rows : 0.0, "stddev");
    sink.write(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json",
               r.fingerprint);
    // This workload has no wire; its traced run also measures the net
    // layer, on a shard stack of its own.
    net_layers(o, r);
  }
  common_tail(r, o, s->trained, *s->served->model, s->served->model->inner(), retrainer, fits);
}

// ---- the net sub-run -------------------------------------------------

// Its traffic: a light open-loop rate, 90% of rows on 256 hot keys (grid
// corners, cache-affine hits on the worker that owns them).
constexpr double kNetRate = 6000;
constexpr std::size_t kNetHotKeys = 256;
constexpr double kNetHotFraction = 0.9;

struct ShardStack {
  Trained trained;
  std::unique_ptr<net::ShardedService> service;
  std::unique_ptr<Front> front;
  std::vector<std::vector<double>> first;  // first-served answer per hot key
};

/// Trains the surrogate, forks a 2-shard ShardedService whose workers each
/// run a DispatcherBackend, warms each worker's cache with its hot keys and
/// puts admission + BatchQueue in front.
std::unique_ptr<ShardStack> make_shard_stack() {
  auto st = std::make_unique<ShardStack>();
  st->trained = train_surrogate();
  net::ShardedServiceConfig cfg;
  cfg.shards = 2;
  const nn::Network* net = &st->trained.net;
  // Runs in each forked worker: its own dispatcher over its own MC
  // ensemble, built from the parent's trained network.
  st->service = std::make_unique<net::ShardedService>(
      cfg, [net](std::size_t) { return std::make_unique<DispatcherBackend>(*net); });
  st->service->start();
  st->first.resize(kNetHotKeys);
  for (std::size_t k0 = 0; k0 < kNetHotKeys; k0 += kMaxBatch) {
    const std::size_t n = std::min(kMaxBatch, kNetHotKeys - k0);
    tensor::Matrix m(n, 5);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = grid_point(k0 + i);
      for (std::size_t k = 0; k < 5; ++k) m(i, k) = p[k];
    }
    const auto answers = st->service->query_batch(m);
    for (std::size_t i = 0; i < n; ++i) st->first[k0 + i] = answers[i].values;
  }
  net::ShardedService* svc = st->service.get();
  st->front = std::make_unique<Front>(
      [svc](const tensor::Matrix& in, tensor::Matrix& out,
            std::span<serve::ShedReason> shed, BatchRec& rec) {
        rec.call0 = now_s();
        const std::vector<net::NetAnswer> a = svc->query_batch(in);
        rec.call1 = now_s();
        rec.per_shard.assign(svc->config().shards, 0);
        std::vector<double> worker(svc->config().shards, 0.0);
        for (std::size_t i = 0; i < a.size(); ++i) {
          const std::size_t shard = svc->router().shard_for(in.row(i));
          ++rec.per_shard[shard];
          worker[shard] = std::max(worker[shard], a[i].seconds);
          if (a[i].shed() || a[i].values.size() != 3) {
            shed[i] = a[i].shed_reason == serve::ShedReason::kNone
                          ? serve::ShedReason::kWorkerDown : a[i].shed_reason;
            continue;
          }
          for (std::size_t k = 0; k < 3; ++k) out(i, k) = a[i].values[k];
        }
        rec.worker_s = *std::max_element(worker.begin(), worker.end());
      });
  return st;
}

/// net.* from a traced shard run: router RTT, slowest worker, wire, the
/// codec replayed at the recorded frame size, rows and imbalance.
void finish_net(const Layers& L, Report& r, net::ShardedService& svc,
                const net::ShardedServiceStats& before) {
  auto us = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : quantile(v, q) * 1e6;
  };
  r.set("net.rtt_us_p50", us(L.rtt, 0.5), "us");
  r.set("net.rtt_us_p99", us(L.rtt, 0.99), "us");
  r.set("net.worker_us_p50", us(L.worker, 0.5), "us");
  r.set("net.wire_us_p50", us(L.wire, 0.5), "us");
  r.set("net.rows_per_call", mean(L.shard_rows), "rows");
  r.set("net.shard_imbalance", L.imbalance.empty() ? 0.0 : mean(L.imbalance), "ratio");
  r.set("net.codec_us_per_frame", replay_codec(mean(L.shard_rows)), "us");
  const net::ShardedServiceStats st = svc.stats();
  const double rows = static_cast<double>(std::max<std::uint64_t>(st.rows - before.rows, 1));
  r.set("net.worker_down_frac",
        (st.rows_shed_worker_down - before.rows_shed_worker_down) / rows, "ratio");
}

/// The net layer for a traced run of a workload without a wire: a 2-shard
/// stack whose workers each run a DispatcherBackend, kRounds traced light
/// slices.  Hot keys are compared bit for bit with their first-served
/// answers.  It reports net.* and runs the same reconciliation checks.
void net_layers(const Options& o, Report& r) {
  const Slices sl(o.seconds, false);
  auto s = make_shard_stack();
  const net::ShardedServiceStats before = s->service->stats();
  Layers L;
  TraceSink sink;
  std::uint64_t next_id = 1;
  s->front->set_trace(true);
  for (int round = 0; round < kRounds; ++round) {
    const auto arr = schedule(kNetRate, sl.light, kNetHotKeys, kNetHotFraction,
                              mix(o.seed * 4096 + 900 + round));
    std::vector<const std::vector<double>*> expect(arr.size(), nullptr);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (arr[i].key < kNetHotKeys) expect[i] = &s->first[arr[i].key];
    }
    const OpenRun run =
        run_open(*s->front, arr, points_for(arr, kNetHotKeys, mix(o.seed)), expect);
    account_open(run, "net-light-traced", r, false);
    attribute_open(run, L, sink, next_id, true);
  }
  (void)reconcile(L, r, "net sub-run");
  finish_net(L, r, *s->service, before);
  s->front.reset();
  s->service->stop();
}

int run(const Options& o) {
  if (std::string(TLOOKUP_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "tlookup_ledger: refusing to measure a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n", TLOOKUP_BUILD_TYPE);
    return 2;
  }
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(false);
  Report r;
  r.fingerprint = fingerprint(o);
  std::printf("T_lookup ledger: workload %s seed %llu seconds %.1f trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  if (o.inject_uq > 0.0) {
    std::printf("  SELF-TEST: uq decorator busy-waits %.0f%% of each call\n", o.inject_uq * 100);
  }
  if (o.workload == "uq-open") uq_open(o, r);
  else sweep_inline(o, r);
  const double limit = profile(o.workload).limit_s;
  const double lag_p99 =
      r.lags.empty() ? 0.0 : quantile(std::vector<double>(r.lags.begin(), r.lags.end()), 0.99);
  std::printf("  generator lag p99 over all fixed-rate requests %.1f us\n", lag_p99 * 1e6);
  r.check(lag_p99 <= kLagShare * limit, "generator lag p99 within half the limit");
  r.check(r.bad_rows == 0, "every answer finite, dim 3");
  r.check(r.mismatches == 0, "cached repeats equal first-served answers bitwise");
  bool balanced = true;
  for (const PhaseCount& p : r.phases) balanced = balanced && p.sent == p.ok + p.failed;
  r.check(balanced, "sent == succeeded + failed in every phase");
  for (const auto& [k, v] : r.fingerprint) std::printf("  fingerprint %-12s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, m] : r.metrics) {
    std::printf("  metric %-30s %14.6g %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  const auto [attempted, failed] = r.attempted_failed();
  std::ostringstream js;
  js << "{\"workload\":" << json_str(o.workload) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"correct\":"
     << (r.failures.empty() ? "true" : "false") << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    js << (i ? "," : "") << json_str(r.failures[i]);
  }
  js << "],\"metrics\":{";
  bool first = true;
  for (const auto& [k, m] : r.metrics) {
    js << (first ? "" : ",") << json_str(k) << ":{\"value\":" << num(m.value)
       << ",\"unit\":" << json_str(m.unit) << "}";
    first = false;
  }
  js << "},\"fingerprint\":{";
  first = true;
  for (const auto& [k, v] : r.fingerprint) {
    js << (first ? "" : ",") << json_str(k) << ":" << json_str(v);
    first = false;
  }
  js << "}}";
  std::printf("LEDGER %s\n", js.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::run(ledger::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tlookup_ledger: %s\n", e.what());
    return 1;
  }
}
