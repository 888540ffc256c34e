// Served-path benchmark: boots an in-process HttpServer over a workload's
// tenants (fresh durable stores per run), drives a seeded closed loop of
// POST /v1/batch over loopback HTTP, checks every outcome, and prints one
// JSON result line.
//
//   served_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --out-dir=DIR
//
// --trace=0 reports the end-to-end metrics. --trace=1 runs the same served
// pass with client-side spans, then replays the stream's prefix into the
// layers' public entry points (ShardedService::ApplyBatch / Snapshot, and
// ViewTranslator's Can* / *WithReport on an in-process translator) with
// spans around each call, and reports the per-layer metrics. Nothing
// under src/ is instrumented for this; all spans are recorded here, kept
// in memory and written to DIR/spans-<workload>-<seed>.json at the end.
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// result line still prints, with "correct": false), 2 on a usage or
// set-up error (no result line).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "http_client.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "streams.h"
#include "view/translator.h"

namespace relview {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Set-ups per run; setup_s and relational.seed_s report the median.
constexpr int kSetups = 11;
/// 429 retries before a shed batch counts as failed.
constexpr int kShedRetries = 3;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// Linear-interpolated quantile (0 on an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// One timed request of the served pass.
struct Sample {
  int64_t at = 0;   ///< Completion time (steady clock).
  double ms = 0;    ///< Client latency.
  int updates = 0;  ///< Updates committed by it (commits only).
};

/// Windows a run is cut into for the statistics below. The host a run
/// shares can slow down for seconds at a time; the median over windows
/// follows the run's typical window, so one slow stretch moves a run's
/// figure less than it moves a pooled quantile or a whole-run rate.
constexpr size_t kWindows = 5;

/// The q-quantile of `samples` per window of consecutive completions
/// (equal sample counts, each at least `min_per_window` samples, at most
/// kWindows windows), then the median over windows.
double WindowedQuantile(std::vector<Sample> samples, double q,
                        size_t min_per_window) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  const size_t k = std::clamp<size_t>(samples.size() / min_per_window, 1, kWindows);
  std::vector<double> per_window;
  for (size_t w = 0; w < k; ++w) {
    std::vector<double> ms;
    for (size_t i = w * samples.size() / k; i < (w + 1) * samples.size() / k; ++i) {
      ms.push_back(samples[i].ms);
    }
    per_window.push_back(Quantile(std::move(ms), q));
  }
  return Median(std::move(per_window));
}

/// Committed updates per second in each of up to kWindows equal time
/// windows of [start, end] (at least 40 commits per window on average),
/// then the median over windows.
double WindowedRate(const std::vector<Sample>& commits, int64_t start,
                    int64_t end) {
  const size_t k = std::clamp<size_t>(commits.size() / 40, 1, kWindows);
  const double window_ns = static_cast<double>(end - start) / static_cast<double>(k);
  std::vector<double> updates(k, 0.0);
  for (const Sample& c : commits) {
    const size_t w = std::min(
        k - 1, static_cast<size_t>(static_cast<double>(c.at - start) / window_ns));
    updates[w] += c.updates;
  }
  for (double& u : updates) u /= window_ns / 1e9;
  return Median(std::move(updates));
}

uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at a root.
  int64_t req = -1;  ///< Batch index in the stream (the request id).
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Add(std::string name, int64_t start, int64_t end, int parent,
          int64_t req) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, req});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Median self time (ms) of spans named `name`: duration minus the
  /// union of its children's intervals (children do not overlap here).
  double SelfMs(const std::string& name) const {
    std::map<int, int64_t> child_time;
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
    }
    std::vector<double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      self.push_back(
          Ms(spans_[i].end - spans_[i].start - child_time[static_cast<int>(i)]));
    }
    return Median(self);
  }

  /// Median duration (ms) of spans named `name`.
  double DurationMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(Ms(s.end - s.start));
    }
    return Median(std::move(out));
  }

  /// req -> duration (ms) of spans named `name`.
  std::map<int64_t, double> ByRequest(const std::string& name) const {
    std::map<int64_t, double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out[s.req] = Ms(s.end - s.start);
    }
    return out;
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot write " + path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
          << ",\"req\":" << s.req << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return out ? Status::OK() : Status::Internal("short write to " + path);
  }

 private:
  const bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output checks: every failed check counts once in `failed`.

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (failed < 8) std::fprintf(stderr, "served_bench: check failed: %s\n", what.c_str());
    ++failed;
  }
};

int FailedIndex(const std::string& body) {
  const size_t p = body.find("\"failed_index\":");
  return p == std::string::npos ? -2 : std::atoi(body.c_str() + p + 15);
}

// ---------------------------------------------------------------------------
// Serving

/// One booted server over fresh tenants. Member order is destruction
/// order reversed: the server stops first, the registry (which reads the
/// services) goes before the tenants.
struct Served {
  net::TenantSet tenants;
  TelemetryRegistry registry;
  std::unique_ptr<net::HttpServer> server;
};

Result<std::unique_ptr<Served>> Boot(const WorkloadSpec& spec,
                                     const std::string& store,
                                     double* seed_s) {
  auto served = std::make_unique<Served>();
  const int64_t t0 = NowNanos();
  RELVIEW_ASSIGN_OR_RETURN(served->tenants, MakeWorkloadTenants(spec, store));
  *seed_s = static_cast<double>(NowNanos() - t0) / 1e9;
  for (int i = 0; i < served->tenants.size(); ++i) {
    served->tenants.services[static_cast<size_t>(i)]->RegisterTelemetry(
        &served->registry, "tenant_" + served->tenants.names[static_cast<size_t>(i)]);
  }
  RELVIEW_ASSIGN_OR_RETURN(
      served->server,
      net::HttpServer::Start(&served->tenants, &served->registry));
  return served;
}

/// Hands out stream positions to the closed loop's writers: the lowest
/// pending position whose lane has nothing in flight (see streams.h).
class LaneScheduler {
 public:
  explicit LaneScheduler(const std::vector<Request>& reqs) : lane_of_(reqs.size()) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      lane_of_[i] = reqs[i].lane;
      lanes_[reqs[i].lane].push_back(static_cast<int>(i));
    }
    remaining_ = reqs.size();
    for (const auto& [lane, q] : lanes_) ready_.insert({q.front(), lane});
  }

  /// The next position to send, or -1 once everything is handed out.
  int Next() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !ready_.empty() || remaining_ == 0; });
    if (ready_.empty()) return -1;
    const auto [pos, lane] = *ready_.begin();
    ready_.erase(ready_.begin());
    lanes_[lane].pop_front();
    --remaining_;
    return pos;
  }

  void Done(int pos) {
    std::lock_guard<std::mutex> lock(mu_);
    const int lane = lane_of_[static_cast<size_t>(pos)];
    std::deque<int>& q = lanes_[lane];
    if (!q.empty()) ready_.insert({q.front(), lane});
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> lane_of_;
  std::map<int, std::deque<int>> lanes_;
  std::set<std::pair<int, int>> ready_;
  size_t remaining_ = 0;
};

/// What one served pass measured.
struct ServedResult {
  std::vector<double> setup_s, seed_s;
  double rss_bytes_per_row = 0;
  int64_t write_start = 0, write_end = 0;
  std::vector<Sample> commits, rejects, reads;
  std::vector<double> read_bytes;
  double recovery_s = 0;
  uint64_t replayed_updates = 0;
  std::string metrics_text;  ///< GET /metrics after the run.
};

/// Sends one POST, retrying 429s; returns the final status.
int PostBatch(Connection* conn, const std::string& request, std::string* body) {
  int status = conn->Roundtrip(request, body);
  for (int i = 0; status == 429 && i < kShedRetries; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    status = conn->Roundtrip(request, body);
  }
  return status;
}

std::string BatchRequest(const Request& r) {
  return net::BuildRequest("POST", "/v1/batch", "127.0.0.1", r.body);
}

/// A snapshot read of the full served state: the view rows and, with
/// `database`, the database rows too. The measured reads take both, so a
/// read does enough rendering work that its latency tracks the snapshot
/// path rather than loopback wake-up jitter.
std::string SnapshotRequest(const std::string& tenant, bool database) {
  return net::BuildRequest(
      "GET", "/v1/snapshot?tenant=" + tenant + (database ? "&include=database" : ""),
      "127.0.0.1", "");
}

Status RunServed(const WorkloadSpec& spec, const Stream& stream,
                 const std::string& store_base, SpanLog* spans,
                 Checks* checks, ServedResult* out) {
  // Set up kSetups times; keep the last, tear the others down.
  std::unique_ptr<Served> served;
  std::string store;
  for (int i = 0; i < kSetups; ++i) {
    if (served != nullptr) {
      served.reset();
      fs::remove_all(store);
    }
    store = store_base + "/setup-" + std::to_string(i);
    const uint64_t rss0 = RssBytes();
    const int64_t t0 = NowNanos();
    double seed_s = 0;
    RELVIEW_ASSIGN_OR_RETURN(served, Boot(spec, store, &seed_s));
    out->setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    out->seed_s.push_back(seed_s);
    if (i == 0) {
      const uint64_t rss1 = RssBytes();
      out->rss_bytes_per_row = static_cast<double>(rss1 - std::min(rss1, rss0)) /
                               (static_cast<double>(spec.rows) * spec.tenants);
    }
  }
  const int port = served->server->port();

  // The closed loop: each writer sends its next batch after the previous
  // ack; readers (mixed_4k) fetch snapshots until the writers are done.
  std::vector<std::string> requests;
  for (const Request& r : stream.writes) requests.push_back(BatchRequest(r));
  std::vector<int> status(stream.writes.size(), 0);
  std::vector<std::string> bodies(stream.writes.size());
  std::vector<int64_t> sent(stream.writes.size(), 0), acked(stream.writes.size(), 0);
  LaneScheduler scheduler(stream.writes);
  std::atomic<bool> writers_done{false};
  std::mutex reads_mu;
  std::vector<int> read_status;

  auto read = [&](Connection* conn, int k) {
    const std::string& tenant =
        served->tenants.names[static_cast<size_t>(k % spec.tenants)];
    std::string body;
    const int64_t t0 = NowNanos();
    const int st = conn->Roundtrip(SnapshotRequest(tenant, true), &body);
    const int64_t t1 = NowNanos();
    spans->Add("net.snapshot", t0, t1, -1, -1);
    std::lock_guard<std::mutex> lock(reads_mu);
    read_status.push_back(st);
    out->reads.push_back({t1, Ms(t1 - t0)});
    out->read_bytes.push_back(static_cast<double>(body.size()));
  };
  auto writer = [&] {
    Connection conn(port);
    for (int pos = scheduler.Next(); pos >= 0; pos = scheduler.Next()) {
      const size_t p = static_cast<size_t>(pos);
      sent[p] = NowNanos();
      status[p] = PostBatch(&conn, requests[p], &bodies[p]);
      acked[p] = NowNanos();
      spans->Add("net.roundtrip", sent[p], acked[p], -1, pos);
      scheduler.Done(pos);
      if (spec.read_after_write) read(&conn, stream.writes[p].tenant);
    }
  };
  auto reader = [&](int id) {
    Connection conn(port);
    for (int k = id; !writers_done.load(); ++k) read(&conn, k);
  };

  out->write_start = NowNanos();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < spec.readers; ++i) threads.emplace_back(reader, i);
    std::vector<std::thread> writers;
    for (int i = 0; i < spec.writers; ++i) writers.emplace_back(writer);
    for (std::thread& t : writers) t.join();
    out->write_end = NowNanos();
    writers_done.store(true);
    for (std::thread& t : threads) t.join();
  }

  for (size_t i = 0; i < stream.writes.size(); ++i) {
    const Request& r = stream.writes[i];
    const bool ok =
        status[i] == r.expect_status &&
        (status[i] != 409 || r.expect_failed_index < 0 ||
         FailedIndex(bodies[i]) == r.expect_failed_index);
    checks->Expect(ok, "write " + std::to_string(i) + " returned " +
                           std::to_string(status[i]) + ", expected " +
                           std::to_string(r.expect_status));
    const Sample sample{acked[i], Ms(acked[i] - sent[i]), r.updates};
    if (status[i] == 200) {
      out->commits.push_back(sample);
    } else if (status[i] == 409) {
      out->rejects.push_back(sample);
    }
  }
  for (int st : read_status) checks->Expect(st == 200, "snapshot read");

  // The last served snapshot of every tenant: the final-view and
  // durability checks compare against it.
  std::vector<std::vector<std::string>> last_rows;
  {
    Connection conn(port);
    std::string body;
    for (int t = 0; t < spec.tenants; ++t) {
      const int st = conn.Roundtrip(
          SnapshotRequest(served->tenants.names[static_cast<size_t>(t)], false),
          &body);
      auto rows = SnapshotRows(body);
      checks->Expect(st == 200 && rows.ok(), "final snapshot read");
      last_rows.push_back(rows.ok() ? *rows : std::vector<std::string>{});
      const std::vector<std::string>& got = last_rows.back();
      checks->Expect(got.size() == stream.final_view_rows[static_cast<size_t>(t)],
                     "final view size of tenant " + std::to_string(t) + ": " +
                         std::to_string(got.size()) + " rows, expected " +
                         std::to_string(stream.final_view_rows[static_cast<size_t>(t)]));
      if (!stream.final_view.empty()) {
        checks->Expect(got == stream.final_view[static_cast<size_t>(t)],
                       "final view rows of tenant " + std::to_string(t));
      }
    }
    if (spans->on()) {
      const int st = conn.Roundtrip(
          net::BuildRequest("GET", "/metrics", "127.0.0.1", ""), &body);
      checks->Expect(st == 200, "metrics scrape");
      out->metrics_text = body;
    }
  }

  // Stop, close the stores, and reopen them: recovery time plus the
  // durability check (the reopened view equals the last served one).
  served.reset();
  const int64_t r0 = NowNanos();
  RELVIEW_ASSIGN_OR_RETURN(net::TenantSet reopened,
                           MakeWorkloadTenants(spec, store));
  out->recovery_s = static_cast<double>(NowNanos() - r0) / 1e9;
  for (int t = 0; t < reopened.size(); ++t) {
    const ShardedService& svc = *reopened.services[static_cast<size_t>(t)];
    out->replayed_updates += svc.replayed_updates();
    std::vector<std::string> rows;
    for (const ViewSnapshot& s : svc.Snapshot().shards) {
      std::vector<std::string> part = RelationRows(*s.view);
      rows.insert(rows.end(), part.begin(), part.end());
    }
    std::sort(rows.begin(), rows.end());
    checks->Expect(rows == last_rows[static_cast<size_t>(t)],
                   "reopened view of tenant " + std::to_string(t) +
                       " differs from the last served one");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced replays into the layers below net

/// Sum of a Prometheus counter family over every label set.
double ScrapeSum(const std::string& text, const std::string& family) {
  double sum = 0;
  size_t pos = 0;
  while ((pos = text.find(family, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t after = pos + family.size();
    pos = after;
    if (!line_start || after >= text.size() ||
        (text[after] != '{' && text[after] != ' ')) {
      continue;
    }
    const size_t eol = text.find('\n', after);
    const size_t sp = text.rfind(' ', eol);
    sum += std::strtod(text.c_str() + sp + 1, nullptr);
  }
  return sum;
}

/// Replays the stream's first `n` writes through ShardedService::ApplyBatch
/// on fresh stores, one batch at a time, timing each call and the Snapshot()
/// that follows a commit. BatchTimings become child spans laid end to end
/// inside the apply span.
Status ReplayShard(const WorkloadSpec& spec, const Stream& stream, int n,
                   const std::string& store, SpanLog* spans,
                   std::map<std::string, double>* out) {
  RELVIEW_ASSIGN_OR_RETURN(net::TenantSet tenants,
                           MakeWorkloadTenants(spec, store));
  for (int i = 0; i < n; ++i) {
    const Request& r = stream.writes[static_cast<size_t>(i)];
    RELVIEW_ASSIGN_OR_RETURN(std::vector<ViewUpdate> updates,
                             DecodeBatch(r.body));
    ShardedService& svc = *tenants.services[static_cast<size_t>(r.tenant)];
    const int64_t t0 = NowNanos();
    const BatchResult result = svc.ApplyBatch(updates);
    const int64_t t1 = NowNanos();
    const int root = spans->Add("shard.apply_batch", t0, t1, -1, i);
    const BatchTimings& bt = result.timings;
    spans->Add("service.stage", t0, t0 + bt.stage_nanos, root, i);
    if (result.ok()) {
      // Only committed batches reach the journal.
      const int64_t a0 = t0 + bt.stage_nanos;
      spans->Add("service.append", a0, a0 + bt.append_nanos, root, i);
      spans->Add("service.commit_wait", a0 + bt.append_nanos,
                 a0 + bt.append_nanos + bt.commit_wait_nanos, root, i);
      const int64_t s0 = NowNanos();
      svc.Snapshot();
      spans->Add("shard.snapshot", s0, NowNanos(), -1, i);
    }
  }
  double fsync_nanos = 0, fsyncs = 0;
  for (const auto& svc : tenants.services) {
    for (int s = 0; s < svc->shard_count(); ++s) {
      const DurableStore* ds = svc->shard(s)->store();
      fsync_nanos += static_cast<double>(ds->fsync_latency()->total_nanos());
      fsyncs += static_cast<double>(ds->fsyncs());
    }
  }
  (*out)["shard.apply_batch_ms"] = spans->DurationMs("shard.apply_batch");
  (*out)["shard.self_ms"] = spans->SelfMs("shard.apply_batch");
  (*out)["service.stage_ms"] = spans->DurationMs("service.stage");
  (*out)["service.append_ms"] = spans->DurationMs("service.append");
  (*out)["service.commit_wait_ms"] = spans->DurationMs("service.commit_wait");
  (*out)["service.snapshot_ms"] = spans->DurationMs("shard.snapshot");
  (*out)["service.fsync_ms"] = Ratio(fsync_nanos, fsyncs) / 1e6;
  return Status::OK();
}

/// EngineStats as a name -> value map (the X-macro keeps it complete).
std::map<std::string, uint64_t> StatMap(const EngineStats& s) {
  std::map<std::string, uint64_t> m;
#define RELVIEW_PERFBENCH_FIELD(name) m[#name] = s.name;
  RELVIEW_ENGINE_STAT_FIELDS(RELVIEW_PERFBENCH_FIELD)
#undef RELVIEW_PERFBENCH_FIELD
  return m;
}

/// Accumulates engine-counter deltas across calls. The counters restart
/// at zero whenever the engine is reset (InstallDatabase after a
/// rollback), so a drop counts as one reset and the new value as the
/// delta.
class EngineDeltas {
 public:
  /// Reads `vt`'s counters after a call and adds the call's deltas.
  void Step(const ViewTranslator& vt) {
    std::map<std::string, uint64_t> now = StatMap(vt.engine_stats());
    bool dropped = false;
    for (const auto& [k, v] : now) dropped |= v < last_[k];
    if (dropped) ++resets_;
    for (const auto& [k, v] : now) total_[k] += dropped ? v : v - last_[k];
    last_ = std::move(now);
  }

  uint64_t total(const std::string& k) const {
    const auto it = total_.find(k);
    return it == total_.end() ? 0 : it->second;
  }
  uint64_t resets() const { return resets_; }

 private:
  std::map<std::string, uint64_t> last_, total_;
  uint64_t resets_ = 0;
};

/// A check-and-apply result as UpdateService::StageOne reads it:
/// {accepted, changed the database}. An error status (say, replacing a
/// row that is not in the view) is a rejection like an untranslatable
/// verdict.
template <typename Report>
std::pair<bool, bool> Outcome(const Result<Report>& r) {
  const bool ok = r.ok() && r->translatable();
  return {ok, ok && r->verdict != TranslationVerdict::kIdentity};
}

/// Replays the stream's first `n` writes into an in-process incremental
/// ViewTranslator per tenant, with the service's batch semantics: each
/// update is checked (Can*) and then checked-and-applied (*WithReport);
/// a rejection reinstalls the saved database when the batch had already
/// mutated it, exactly as UpdateService::ApplyBatch does.
Status ReplayTranslator(const WorkloadSpec& spec, const Stream& stream, int n,
                        SpanLog* spans, std::map<std::string, double>* out) {
  TenantSchema schema = MakeTenantSchema(spec);
  std::vector<ViewTranslator> vts;
  std::vector<EngineDeltas> deltas(static_cast<size_t>(spec.tenants));
  for (int t = 0; t < spec.tenants; ++t) {
    RELVIEW_ASSIGN_OR_RETURN(ViewTranslator vt,
                             ViewTranslator::Create(schema.universe, schema.sigma,
                                                    schema.x, schema.y));
    RELVIEW_RETURN_IF_ERROR(vt.Bind(schema.seed));
    vts.push_back(std::move(vt));
  }
  uint64_t checks = 0, applied = 0, rollbacks = 0;
  std::vector<double> apply_ms;
  for (int i = 0; i < n; ++i) {
    const Request& r = stream.writes[static_cast<size_t>(i)];
    ViewTranslator& vt = vts[static_cast<size_t>(r.tenant)];
    EngineDeltas& d = deltas[static_cast<size_t>(r.tenant)];
    RELVIEW_ASSIGN_OR_RETURN(std::vector<ViewUpdate> updates, DecodeBatch(r.body));
    Relation saved = vt.database();
    bool mutated = false;
    for (const ViewUpdate& u : updates) {
      d.Step(vt);
      const int64_t c0 = NowNanos();
      switch (u.kind) {
        case UpdateKind::kInsert: (void)vt.CanInsert(u.t1); break;
        case UpdateKind::kDelete: (void)vt.CanDelete(u.t1); break;
        default: (void)vt.CanReplace(u.t1, u.t2); break;
      }
      const int64_t c1 = NowNanos();
      spans->Add("view.check", c0, c1, -1, i);
      d.Step(vt);
      ++checks;
      const auto [ok, changed] =
          u.kind == UpdateKind::kInsert   ? Outcome(vt.InsertWithReport(u.t1))
          : u.kind == UpdateKind::kDelete ? Outcome(vt.DeleteWithReport(u.t1))
                                          : Outcome(vt.ReplaceWithReport(u.t1, u.t2));
      const int64_t a1 = NowNanos();
      spans->Add("view.with_report", c1, a1, -1, i);
      apply_ms.push_back(Ms((a1 - c1) - (c1 - c0)));
      d.Step(vt);
      if (!ok) {
        ++rollbacks;
        if (mutated) {
          vt.InstallDatabase(std::move(saved));
          d.Step(vt);
        }
        break;
      }
      ++applied;
      mutated |= changed;
    }
  }
  uint64_t probes = 0, screened = 0, rechased = 0, resets = 0, rebuilds = 0;
  for (EngineDeltas& d : deltas) {
    probes += d.total("probes_run");
    screened += d.total("probes_screened");
    rechased += d.total("component_rows_rechased");
    rebuilds += d.total("index_rebuilds");
    resets += d.resets();
  }
  (*out)["view.check_ms"] = spans->DurationMs("view.check");
  (*out)["view.apply_ms"] = Median(apply_ms);
  (*out)["chase.probes_per_check"] = Ratio(probes, checks);
  (*out)["chase.screened_ratio"] = Ratio(screened, probes);
  (*out)["chase.rows_rechased_per_update"] = Ratio(rechased, applied);
  (*out)["chase.engine_resets_per_rollback"] = Ratio(resets, rollbacks);
  (*out)["chase.index_rebuilds"] = static_cast<double>(rebuilds);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Result line

/// The reported metrics and their units, as BENCHMARK.json lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},        {"committed_updates_per_s", "1/s"},
    {"commit_p50_ms", "ms"}, {"commit_p90_ms", "ms"},
    {"reject_p50_ms", "ms"}, {"read_p50_ms", "ms"},
    {"read_p90_ms", "ms"},   {"recovery_s", "s"},
    {"peak_rss_mb", "MB"},
};
const std::vector<MetricDef> kPerLayer = {
    {"net.roundtrip_ms", "ms"},
    {"net.self_ms", "ms"},
    {"net.unattributed_share", "ratio"},
    {"net.snapshot_bytes", "bytes"},
    {"shard.apply_batch_ms", "ms"},
    {"shard.self_ms", "ms"},
    {"service.stage_ms", "ms"},
    {"service.append_ms", "ms"},
    {"service.commit_wait_ms", "ms"},
    {"service.fsync_ms", "ms"},
    {"service.fsyncs_per_commit", "ratio"},
    {"service.snapshot_ms", "ms"},
    {"service.rollbacks_per_batch", "ratio"},
    {"service.replayed_updates", "count"},
    {"view.check_ms", "ms"},
    {"view.apply_ms", "ms"},
    {"chase.probes_per_check", "count"},
    {"chase.screened_ratio", "ratio"},
    {"chase.rows_rechased_per_update", "count"},
    {"chase.engine_resets_per_rollback", "ratio"},
    {"chase.index_rebuilds", "count"},
    {"relational.rss_bytes_per_row", "bytes"},
    {"relational.seed_s", "s"},
    {"trace.commit_p50_ms", "ms"},
};

/// Prints the result line with every metric of `defs`; false (and no
/// line) when one of them was not measured.
bool PrintResult(const Checks& checks, const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::string m;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      std::fprintf(stderr, "served_bench: %s was not measured\n", d.name);
      return false;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", it->second);
    if (!m.empty()) m += ", ";
    m += std::string("\"") + d.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + d.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), m.c_str());
  std::fflush(stdout);
  return true;
}

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

int Run(int argc, char** argv) {
  const WorkloadSpec* spec = FindWorkload(Flag(argc, argv, "workload"));
  const std::string out_dir = Flag(argc, argv, "out-dir");
  const std::string seed_flag = Flag(argc, argv, "seed");
  const int seconds = std::atoi(Flag(argc, argv, "seconds").c_str());
  const std::string trace = Flag(argc, argv, "trace");
  if (spec == nullptr || out_dir.empty() || seed_flag.empty() || seconds < 1 ||
      (trace != "0" && trace != "1")) {
    std::fprintf(stderr,
                 "usage: served_bench --workload=ingest_64k|mixed_4k|probe_8k "
                 "--seed=N --seconds=S --trace=0|1 --out-dir=DIR\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(seed_flag.c_str(), nullptr, 10);
  const bool traced = trace == "1";
  const std::string store_base =
      out_dir + "/stores-" + spec->name + "-" + std::to_string(::getpid());
  fs::remove_all(store_base);

  Checks checks;
  const int64_t t0 = NowNanos();
  const Status self_test = SelfTest(seed);
  checks.Expect(self_test.ok(), "self-test: " + self_test.ToString());
  std::fprintf(stderr, "served_bench: self-test took %.2f s\n",
               static_cast<double>(NowNanos() - t0) / 1e9);

  const int batches = static_cast<int>(spec->batches_per_second * seconds);
  auto stream = MakeStream(*spec, seed, batches);
  if (!stream.ok()) {
    std::fprintf(stderr, "served_bench: stream: %s\n", stream.status().ToString().c_str());
    return 2;
  }

  SpanLog spans(traced);
  ServedResult served;
  Status st = RunServed(*spec, *stream, store_base + "/served", &spans, &checks, &served);
  std::map<std::string, double> values;
  const int prefix = std::min(spec->traced_batches, batches);
  if (st.ok() && traced) {
    st = ReplayShard(*spec, *stream, prefix, store_base + "/replay", &spans, &values);
  }
  if (st.ok() && traced) {
    st = ReplayTranslator(*spec, *stream, prefix, &spans, &values);
  }
  fs::remove_all(store_base);
  if (!st.ok()) {
    std::fprintf(stderr, "served_bench: %s\n", st.ToString().c_str());
    return 2;
  }

  if (!traced) {
    values["setup_s"] = Median(served.setup_s);
    // A p90 window holds at least 100 samples (10 beyond the p90), a p50
    // window at least 20.
    values["committed_updates_per_s"] =
        WindowedRate(served.commits, served.write_start, served.write_end);
    values["commit_p50_ms"] = WindowedQuantile(served.commits, 0.5, 20);
    values["commit_p90_ms"] = WindowedQuantile(served.commits, 0.9, 100);
    values["reject_p50_ms"] = WindowedQuantile(served.rejects, 0.5, 20);
    values["read_p50_ms"] = WindowedQuantile(served.reads, 0.5, 20);
    values["read_p90_ms"] = WindowedQuantile(served.reads, 0.9, 100);
    values["recovery_s"] = served.recovery_s;
    values["peak_rss_mb"] = PeakRssMb();
    std::fprintf(stderr,
                 "served_bench: %s seed=%llu commits=%zu rejects=%zu reads=%zu\n",
                 spec->name.c_str(), static_cast<unsigned long long>(seed),
                 served.commits.size(), served.rejects.size(),
                 served.reads.size());
  } else {
    // net.self: the served round trip of batch i minus the in-process
    // ShardedService::ApplyBatch of the same batch i.
    std::vector<double> self;
    double self_sum = 0, rt_sum = 0;
    const std::map<int64_t, double> roundtrip = spans.ByRequest("net.roundtrip");
    for (const auto& [req, ms] : spans.ByRequest("shard.apply_batch")) {
      const double rt = roundtrip.at(req);
      self.push_back(rt - ms);
      self_sum += rt - ms;
      rt_sum += rt;
    }
    const std::string& m = served.metrics_text;
    const double committed = ScrapeSum(m, "relview_batches_committed_total");
    const double rolled = ScrapeSum(m, "relview_batches_rolled_back_total");
    values["net.roundtrip_ms"] = spans.DurationMs("net.roundtrip");
    values["net.self_ms"] = Median(self);
    values["net.unattributed_share"] = Ratio(self_sum, rt_sum);
    values["net.snapshot_bytes"] = Median(served.read_bytes);
    values["service.fsyncs_per_commit"] =
        Ratio(ScrapeSum(m, "relview_journal_fsyncs_total"), committed);
    values["service.rollbacks_per_batch"] = Ratio(rolled, committed + rolled);
    values["service.replayed_updates"] = static_cast<double>(served.replayed_updates);
    values["relational.rss_bytes_per_row"] = served.rss_bytes_per_row;
    values["relational.seed_s"] = Median(served.seed_s);
    values["trace.commit_p50_ms"] = WindowedQuantile(served.commits, 0.5, 20);
    const std::string path = out_dir + "/spans-" + spec->name + "-" + seed_flag + ".json";
    const Status w = spans.Write(path);
    if (!w.ok()) std::fprintf(stderr, "served_bench: %s\n", w.ToString().c_str());
  }
  if (!PrintResult(checks, traced ? kPerLayer : kEndToEnd, values)) return 2;
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace relview

int main(int argc, char** argv) { return relview::perfbench::Run(argc, argv); }
