#include "service/update_service.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/wide_event.h"
#include "util/failpoint.h"
#include "util/small_util.h"
#include "view/deletion.h"
#include "view/insertion.h"
#include "view/replacement.h"

namespace relview {

Result<std::unique_ptr<UpdateService>> UpdateService::Create(
    ViewTranslator translator, ServiceOptions options) {
  if (!translator.bound()) {
    return Status::FailedPrecondition(
        "UpdateService needs a translator bound to a database");
  }
  uint64_t replayed = 0;
  std::unique_ptr<DurableStore> store;
  if (!options.store.dir.empty()) {
    RELVIEW_ASSIGN_OR_RETURN(store,
                             DurableStore::Open(options.store, &translator));
    replayed = store->recovery().replayed;
  }
  std::unique_ptr<UpdateService> service(new UpdateService(
      std::move(translator), std::move(store), options.group_window_us,
      options.commit_stall_ms));
  for (uint64_t i = 0; i < replayed; ++i) {
    service->metrics_.RecordReplayedUpdate();
  }
  return service;
}

namespace {
uint64_t NextServiceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

UpdateService::UpdateService(ViewTranslator translator,
                             std::unique_ptr<DurableStore> store,
                             uint32_t group_window_us, uint32_t commit_stall_ms)
    : translator_(std::move(translator)),
      store_(std::move(store)),
      group_window_us_(group_window_us),
      commit_stall_ms_(commit_stall_ms),
      universe_(translator_.universe()),
      view_attrs_(translator_.view()),
      complement_attrs_(translator_.complement()),
      service_id_(NextServiceId()) {
  // No concurrent access is possible yet, but the snapshot build requires
  // the writer capability, so take it (uncontended) rather than suppress
  // the analysis. Version 0 is installed directly: PublishIfNewer only
  // installs versions past the published one.
  MutexLock writer(writer_mu_);
  std::shared_ptr<const ViewSnapshot> seed = BuildSnapshotLocked(0);
  WriterMutexLock lock(snapshot_mu_);
  snapshot_ = std::move(seed);
}

ViewSnapshot UpdateService::Snapshot() const {
  // Per-thread cache gated on the published version: while no write has
  // committed, a reader's Snapshot() is one atomic load plus a local copy
  // — no rwlock word, no contended pointer. The cache pins at most one
  // stale version per (thread, service) until that thread reads again.
  struct Cache {
    uint64_t service_id = 0;
    ViewSnapshot snap;
  };
  static thread_local Cache cache;
  const uint64_t v = published_version_.load(std::memory_order_acquire);
  if (cache.service_id != service_id_ || cache.snap.version != v) {
    ReaderMutexLock lock(snapshot_mu_);
    cache.snap = *snapshot_;
    cache.service_id = service_id_;
  }
  metrics_.RecordSnapshot();
  return cache.snap;
}

uint64_t UpdateService::version() const {
  return published_version_.load(std::memory_order_acquire);
}

Status UpdateService::StageOne(const ViewUpdate& u, int batch_index,
                               std::string* detail, bool* mutated) {
  RELVIEW_TRACE_SPAN("svc.stage_one");
  Timer timer;
  DecisionTrace trace;
  trace.update = u.ToString();
  trace.batch_index = batch_index;
  const EngineStats before = translator_.engine_stats();
  TranslationVerdict verdict = TranslationVerdict::kTranslatable;
  int64_t apply_nanos = 0;
  Status st = Status::OK();
  switch (u.kind) {
    case UpdateKind::kInsert: {
      trace.kind = 'I';
      Result<InsertionReport> r = translator_.InsertWithReport(u.t1);
      if (!r.ok()) {
        st = r.status();
        *detail = st.ToString();
      } else {
        verdict = r->verdict;
        trace.verdict = TranslationVerdictName(r->verdict);
        trace.failed_condition = FailingCondition(r->verdict);
        trace.chases_run = r->chases_run;
        trace.chase_merges = r->stats.merges;
        trace.chase_rounds = r->stats.rounds;
        trace.chase_work = r->stats.work;
        if (!r->translatable()) {
          *detail = r->ToString();
          st = Status::Untranslatable(*detail);
          if (r->verdict == TranslationVerdict::kFailsChase) {
            trace.has_violated_fd = true;
            trace.violated_fd = r->violated_fd;
            trace.has_violator = r->witness_row >= 0;
            trace.violator_row = r->witness_row;
            trace.violator_tuple = r->witness_tuple;
            trace.has_mu = r->witness_mu_tuple.arity() > 0;
            trace.mu_tuple = r->witness_mu_tuple;
          }
        } else {
          apply_nanos = r->apply_nanos;
        }
      }
      break;
    }
    case UpdateKind::kDelete: {
      trace.kind = 'D';
      Result<DeletionReport> r = translator_.DeleteWithReport(u.t1);
      if (!r.ok()) {
        st = r.status();
        *detail = st.ToString();
      } else {
        verdict = r->verdict;
        trace.verdict = TranslationVerdictName(r->verdict);
        trace.failed_condition = FailingCondition(r->verdict);
        if (!r->translatable()) {
          *detail = TranslationVerdictName(r->verdict);
          st = Status::Untranslatable(*detail);
        } else {
          apply_nanos = r->apply_nanos;
        }
      }
      break;
    }
    case UpdateKind::kReplace: {
      trace.kind = 'R';
      Result<ReplacementReport> r = translator_.ReplaceWithReport(u.t1, u.t2);
      if (!r.ok()) {
        st = r.status();
        *detail = st.ToString();
      } else {
        verdict = r->verdict;
        trace.verdict = TranslationVerdictName(r->verdict);
        trace.failed_condition = FailingCondition(r->verdict);
        trace.chases_run = r->chases_run;
        if (!r->translatable()) {
          *detail = TranslationVerdictName(r->verdict);
          st = Status::Untranslatable(*detail);
          if (r->verdict == TranslationVerdict::kFailsChase) {
            trace.has_violated_fd = true;
            trace.violated_fd = r->violated_fd;
            trace.has_violator = r->witness_row >= 0;
            trace.violator_row = r->witness_row;
            trace.violator_tuple = r->witness_tuple;
            trace.has_mu = r->witness_mu_tuple.arity() > 0;
            trace.mu_tuple = r->witness_mu_tuple;
          }
        } else {
          apply_nanos = r->apply_nanos;
        }
      }
      break;
    }
    case UpdateKind::kNumUpdateKinds:
      // Sentinel; unreachable through the public constructors. Bail before
      // the per-kind metric arrays would be indexed out of range.
      *detail = "sentinel update kind";
      return Status::Internal(*detail).WithBatchIndex(batch_index);
  }
  // The report times the apply phase itself; everything else was the check.
  const int64_t check_nanos = timer.ElapsedNanos() - apply_nanos;
  metrics_.RecordCheckLatency(check_nanos, CurrentSampledTraceId());

  // Attribute the engine's counter movement to this one decision.
  const EngineStats after = translator_.engine_stats();
  auto delta = [](uint64_t b, uint64_t a) {
    return static_cast<int64_t>(a - b);
  };
  trace.probes_run = delta(before.probes_run, after.probes_run);
  trace.probes_screened = delta(before.probes_screened, after.probes_screened);
  trace.probes_parallel = delta(before.probes_parallel, after.probes_parallel);
  trace.closure_hits = delta(before.closure_hits, after.closure_hits);
  trace.closure_misses = delta(before.closure_misses, after.closure_misses);
  trace.index_reuses = delta(before.index_reuses, after.index_reuses);
  trace.index_rebuilds = delta(before.index_rebuilds, after.index_rebuilds);
  trace.base_reuses = delta(before.base_reuses, after.base_reuses);
  trace.base_rebuilds = delta(before.base_rebuilds, after.base_rebuilds);
  trace.base_extends = delta(before.base_extends, after.base_extends);
  trace.base_shrinks = delta(before.base_shrinks, after.base_shrinks);
  trace.component_rows_rechased =
      delta(before.component_rows_rechased, after.component_rows_rechased);
  trace.check_nanos = check_nanos;
  trace.apply_nanos = apply_nanos;
  trace.accepted = st.ok();
  if (trace.verdict.empty()) trace.verdict = StatusCodeName(st.code());
  decisions_.Push(std::move(trace));

  if (!st.ok()) {
    metrics_.RecordRejected(u.kind, st.code());
    return std::move(st).WithBatchIndex(batch_index);
  }
  metrics_.RecordAccepted(u.kind);
  if (verdict == TranslationVerdict::kIdentity) return Status::OK();
  metrics_.RecordApplyLatency(apply_nanos, CurrentSampledTraceId());
  *mutated = true;
  return Status::OK();
}

namespace {
// Queue-depth gauge scope: counted before the mutex so parked writers
// show up in relview_pending_writers.
struct PendingGuard {
  std::atomic<int>& n;
  explicit PendingGuard(std::atomic<int>& counter) : n(counter) {
    n.fetch_add(1, std::memory_order_relaxed);
  }
  ~PendingGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
};
}  // namespace

BatchResult UpdateService::ApplyBatch(const std::vector<ViewUpdate>& updates) {
  BatchResult result;
  if (updates.empty()) return result;
  RELVIEW_TRACE_SPAN_N(span, "svc.apply_batch");
  span.AddArg("updates", updates.size());

  PendingGuard pending(pending_writers_);

  uint64_t durable_target = 0;
  std::shared_ptr<const ViewSnapshot> snap;
  {
    MutexLock writer(writer_mu_);
    // Fail fast once the commit path is poisoned: staging more work would
    // only apply in-memory state that can never be made durable.
    {
      MutexLock commit(commit_mu_);
      if (!commit_poison_.ok()) {
        result.status = commit_poison_;
        result.detail = "commit path poisoned by an earlier fsync failure";
        return result;
      }
    }
    // The translator applies updates in place (keeping the engine's caches
    // warm), so save the committed relation first: one rejection
    // reinstalls it and the batch leaves no trace. Published snapshots
    // hold their own shared_ptrs and are untouched either way.
    Relation saved = translator_.database();
    bool mutated = false;
    Timer stage_timer;
    for (size_t i = 0; i < updates.size(); ++i) {
      Status st = StageOne(updates[i], static_cast<int>(i), &result.detail,
                           &mutated);
      if (!st.ok()) {
        if (mutated) translator_.InstallDatabase(std::move(saved));
        metrics_.RecordBatchRolledBack();
        result.status = std::move(st);
        result.failed_index = static_cast<int>(i);
        result.timings.stage_nanos = stage_timer.ElapsedNanos();
        return result;
      }
    }
    result.timings.stage_nanos = stage_timer.ElapsedNanos();
    // Write-ahead, but WITHOUT the fsync: durability is the commit
    // leader's job (AwaitDurable below), and the batch is published only
    // after it. A failed append rolls this batch — and only this batch —
    // off the file (Journal's RollBackTo truncates back to the batch's own
    // start offset, so earlier unsynced batches are untouched).
    RELVIEW_FAILPOINT("commit.crash_before_append");  // crash-armed only
    if (store_ != nullptr) {
      Timer append_timer;
      Status st = store_->AppendUnsynced(updates);
      result.timings.append_nanos = append_timer.ElapsedNanos();
      if (!st.ok()) {
        if (mutated) translator_.InstallDatabase(std::move(saved));
        metrics_.RecordBatchRolledBack();
        result.status = std::move(st);
        result.detail = "journal append failed; batch rolled back";
        return result;
      }
      durable_target = store_->seq();
    }
    snap = BuildSnapshotLocked(++version_);
    metrics_.SetEngineGauges(translator_.engine_stats());

    // Checkpoint cadence: once the replay debt crosses the configured
    // threshold, snapshot the committed state and compact. The checkpoint
    // may cover records whose fsync has not happened yet; that is safe —
    // the checkpoint file is itself durable before it counts, closed
    // segments are fsync'd before rotation, and recovering "too much"
    // never violates the acked ⊆ recovered contract (see DESIGN.md §13).
    // A checkpoint failure never fails the batch: the journal holds it,
    // and the debt simply keeps accruing until a checkpoint succeeds.
    if (store_ != nullptr && store_->options().checkpoint_every > 0 &&
        store_->compaction_lag() >= store_->options().checkpoint_every) {
      Result<uint64_t> ckpt = CheckpointLocked();
      if (!ckpt.ok()) {
        std::fprintf(stderr, "relview: auto-checkpoint failed: %s\n",
                     ckpt.status().ToString().c_str());
      }
    }
  }  // writer_mu_ released: the next batch stages while we await the fsync

  if (store_ != nullptr) {
    Status durable = AwaitDurable(durable_target, &result.timings);
    if (!durable.ok()) {
      // The batch is applied in memory and its bytes may or may not reach
      // disk, but the caller is NOT acked — under acked ⊆ recovered that
      // is a correct (if unhappy) outcome. The poisoned store refuses all
      // further writes until reopened.
      result.status = std::move(durable);
      result.detail = "journal fsync failed; batch not acknowledged";
      return result;
    }
  }
  RELVIEW_FAILPOINT("service.crash_before_publish");  // crash-armed only
  metrics_.RecordBatchCommitted();
  PublishIfNewer(std::move(snap));
  return result;
}

namespace {
/// Emits the watchdog's forced "commit_stall" wide event. Out of line so
/// both reporting sites (stuck waiter, slow leader) stay readable.
void EmitCommitStallEvent(uint64_t leader_trace, uint64_t pending_batches,
                          int64_t stalled_nanos, const char* who) {
  WideEvent ev;
  ev.kind = "commit_stall";
  ev.trace_id = leader_trace;
  ev.admission = who;  // "waiter" or "leader": which side saw the stall
  ev.cohort_batches = pending_batches;
  ev.commit_wait_nanos = stalled_nanos;
  ev.total_nanos = stalled_nanos;
  ev.detail = "group-commit leader exceeded the stall deadline";
  GlobalWideEvents().Emit(ev, /*forced=*/true);
}
}  // namespace

Status UpdateService::AwaitDurable(uint64_t target, BatchTimings* timings) {
  // The whole call is commit-wait from the batch's point of view: time it
  // once, spans notwithstanding (leading the fsync *is* waiting for it).
  Timer wait_timer;
  const int64_t stall_nanos =
      static_cast<int64_t>(commit_stall_ms_) * 1'000'000;
  commit_mu_.lock();
  if (target > commit_appended_) commit_appended_ = target;
  ++commit_pending_batches_;
  commit_pending_gauge_.store(commit_pending_batches_,
                              std::memory_order_relaxed);
  while (true) {
    if (!commit_poison_.ok()) {
      Status st = commit_poison_;
      commit_mu_.unlock();
      timings->commit_wait_nanos = wait_timer.ElapsedNanos();
      return st;
    }
    if (commit_synced_ >= target) {
      commit_mu_.unlock();
      timings->commit_wait_nanos = wait_timer.ElapsedNanos();
      return Status::OK();
    }
    if (commit_leader_active_) {
      // A leader's fsync is in flight; it (or a successor) will cover us.
      // The rider span stamps the leader's trace id so this request's
      // trace points at the fsync it shared.
      const uint64_t leader_trace = commit_leader_trace_;
      if (stall_nanos <= 0) {
        RELVIEW_TRACE_SPAN_N(ride, "commit.await_durable");
        if (leader_trace != 0) {
          ride.AddArg("leader_trace", leader_trace);
        }
        commit_cv_.Wait(commit_mu_);
        continue;
      }
      // Watchdog armed: bounded wait, then report a stalled leader once
      // per leader episode (commit_stall_reported_ dedups N waiters).
      RELVIEW_TRACE_SPAN_N(ride, "commit.await_durable");
      if (leader_trace != 0) {
        ride.AddArg("leader_trace", leader_trace);
      }
      const bool woke = commit_cv_.WaitFor(
          commit_mu_, std::chrono::nanoseconds(stall_nanos));
      if (!woke && commit_leader_active_ && !commit_stall_reported_) {
        commit_stall_reported_ = true;
        const uint64_t pending = commit_pending_batches_;
        const uint64_t lt = commit_leader_trace_;
        commit_mu_.unlock();
        metrics_.RecordCommitStall();
        EmitCommitStallEvent(lt, pending, wait_timer.ElapsedNanos(),
                             "waiter");
        commit_mu_.lock();
      }
      continue;
    }
    // Lead one cohort: fsync everything appended so far, on behalf of
    // every waiter whose target it covers.
    commit_leader_active_ = true;
    commit_stall_reported_ = false;
    commit_leader_trace_ = CurrentTraceContext().trace_id;
    commit_mu_.unlock();
    Timer lead_timer;
    // The leader span owns the shared fsync: every rider's wait resolves
    // to this one span in the leader's trace.
    RELVIEW_TRACE_SPAN_N(fsync_span, "commit.cohort_fsync");
    if (group_window_us_ > 0) {
      // Optional gathering window — trade a bounded latency bump for
      // larger cohorts at low concurrency.
      std::this_thread::sleep_for(std::chrono::microseconds(group_window_us_));
    }
    commit_mu_.lock();
    const uint64_t cohort_target = commit_appended_;
    const uint64_t cohort_batches = commit_pending_batches_;
    commit_pending_batches_ = 0;
    commit_pending_gauge_.store(0, std::memory_order_relaxed);
    commit_mu_.unlock();
    fsync_span.AddArg("cohort_batches", cohort_batches);
    Status st = store_->Sync();  // the one fsync for the whole cohort
    fsync_span.Finish();
    const int64_t led_nanos = lead_timer.ElapsedNanos();
    commit_mu_.lock();
    commit_leader_active_ = false;
    commit_leader_trace_ = 0;
    if (st.ok()) {
      if (cohort_target > commit_synced_) commit_synced_ = cohort_target;
      if (cohort_batches > 0) metrics_.RecordCommitCohort(cohort_batches);
      timings->cohort_batches = cohort_batches;
      timings->led_cohort = true;
    } else {
      commit_poison_ = st;
    }
    // Leader self-report: with no concurrent waiter parked (single-writer
    // traffic) the watchdog above never runs, so a leader that blew the
    // deadline reports its own episode.
    bool report_self = false;
    if (stall_nanos > 0 && led_nanos > stall_nanos &&
        !commit_stall_reported_) {
      commit_stall_reported_ = true;
      report_self = true;
    }
    commit_cv_.NotifyAll();
    if (report_self) {
      const uint64_t lt = CurrentTraceContext().trace_id;
      commit_mu_.unlock();
      metrics_.RecordCommitStall();
      EmitCommitStallEvent(lt, cohort_batches, led_nanos, "leader");
      commit_mu_.lock();
    }
    // Loop: on success our own target is now covered (it was <=
    // commit_appended_ when we sampled); on failure the poison check
    // fails us out.
  }
}

std::shared_ptr<const ViewSnapshot> UpdateService::BuildSnapshotLocked(
    uint64_t version) {
  auto snap = std::make_shared<ViewSnapshot>();
  snap->version = version;
  snap->database = std::make_shared<const Relation>(translator_.database());
  // Served from the engine's incrementally maintained view when live
  // (identical row order to Project — both are canonical).
  Result<Relation> view = translator_.ViewInstance();
  RELVIEW_DCHECK(view.ok(), "snapshot on an unbound translator");
  snap->view = std::make_shared<const Relation>(std::move(*view));
  return snap;
}

void UpdateService::PublishIfNewer(std::shared_ptr<const ViewSnapshot> snap) {
  RELVIEW_TRACE_SPAN("svc.publish");
  const uint64_t version = snap->version;
  WriterMutexLock lock(snapshot_mu_);
  if (version <= published_version_.load(std::memory_order_relaxed)) {
    return;  // an acked waiter with a newer (cumulative) snapshot won
  }
  snapshot_ = std::move(snap);
  published_version_.store(version, std::memory_order_release);
}

Result<uint64_t> UpdateService::Checkpoint() {
  MutexLock writer(writer_mu_);
  return CheckpointLocked();
}

Result<uint64_t> UpdateService::CheckpointLocked() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing needs the durable store (ServiceOptions::store)");
  }
  return store_->WriteCheckpoint(translator_.database());
}

Status UpdateService::Apply(const ViewUpdate& update) {
  BatchResult r = ApplyBatch({update});
  return r.status;
}

namespace {

/// Merges a preformatted label block (`{service="...",shard="N"}`) into
/// every sample so several tenants' — and several shards' — otherwise-
/// identical family names stay distinguishable in one Prometheus
/// exposition. Summary _count/_sum suffix markers keep their suffix and
/// gain the block after it (`_count{service="...",shard="N"}`), which the
/// renderer emits verbatim after the family name.
std::vector<MetricFamily> TagFamilies(std::vector<MetricFamily> families,
                                      const std::string& tag) {
  for (MetricFamily& f : families) {
    for (MetricSample& s : f.samples) {
      if (!s.labels.empty() && s.labels[0] == '_') {
        s.labels += tag;
        continue;
      }
      if (s.labels.empty()) {
        s.labels = tag;
      } else {
        // {kind="insert"} -> {service="...",kind="insert"}
        s.labels = tag.substr(0, tag.size() - 1) + "," + s.labels.substr(1);
      }
    }
  }
  return families;
}

}  // namespace

void UpdateService::RegisterTelemetry(TelemetryRegistry* registry,
                                      const std::string& section,
                                      int shard) const {
  // Registration key and sample labels: `section` alone for a standalone
  // service, plus a `_shard_<n>` key suffix and a `shard="<n>"` sample
  // label for one shard of a sharded service.
  const std::string key =
      shard < 0 ? section : section + "_shard_" + std::to_string(shard);
  std::string tag;  // preformatted {label,...} block, empty = untagged
  if (section != "service") tag = Label("service", section);
  if (shard >= 0) {
    const std::string shard_tag = Label("shard", std::to_string(shard));
    tag = tag.empty() ? shard_tag
                      : tag.substr(0, tag.size() - 1) + "," +
                            shard_tag.substr(1);
  }
  registry->Register(key, [this, tag] {
    // The whole counter walk runs under the metrics seqlock so the
    // families in one scrape are mutually consistent (kind/code rejection
    // totals agree; engine gauges are one snapshot). The fsync histograms
    // and store counters are independent relaxed atomics — approximate by
    // design — but reading them inside costs nothing.
    auto families = metrics_.ReadConsistent([&] { return CollectFamilies(); });
    // The default section keeps its historic un-labelled exposition.
    return tag.empty() ? families : TagFamilies(std::move(families), tag);
  });
  registry->RegisterJson(key, [this] { return metrics_.ToJson(); });
  registry->RegisterJson(
      key == "service" ? "decisions" : key + "_decisions", [this] {
        std::string out = "{\"total\":" + std::to_string(decisions_.total());
        if (std::optional<DecisionTrace> last = decisions_.Last()) {
          out += ",\"last\":" + last->ToJson(&universe_);
        }
        out += "}";
        return out;
      });
}

std::vector<MetricFamily> UpdateService::CollectFamilies() const {
  std::vector<MetricFamily> out;
  MetricFamily accepted = CounterFamily(
      "relview_updates_accepted_total", "Accepted view updates by kind", 0);
  accepted.samples.clear();
  MetricFamily rejected = CounterFamily(
      "relview_updates_rejected_total", "Rejected view updates by kind", 0);
  rejected.samples.clear();
  for (int k = 0; k < ServiceMetrics::kKinds; ++k) {
    const UpdateKind kind = static_cast<UpdateKind>(k);
    const std::string label = Label("kind", UpdateKindName(kind));
    accepted.samples.push_back(
        {label, static_cast<double>(metrics_.accepted(kind))});
    rejected.samples.push_back(
        {label, static_cast<double>(metrics_.rejected(kind))});
  }
  out.push_back(std::move(accepted));
  out.push_back(std::move(rejected));
  MetricFamily by_code = CounterFamily("relview_rejections_total",
                                       "Rejections by status code", 0);
  by_code.samples.clear();
  for (int c = 1; c < ServiceMetrics::kStatusCodes; ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    by_code.samples.push_back(
        {Label("code", StatusCodeName(code)),
         static_cast<double>(metrics_.rejected_by_code(code))});
  }
  out.push_back(std::move(by_code));
  out.push_back(CounterFamily(
      "relview_batches_committed_total", "Committed batches",
      static_cast<double>(metrics_.batches_committed())));
  out.push_back(CounterFamily(
      "relview_batches_rolled_back_total", "Rolled-back batches",
      static_cast<double>(metrics_.batches_rolled_back())));
  out.push_back(CounterFamily("relview_snapshots_total", "Snapshot reads",
                              static_cast<double>(metrics_.snapshots())));
  out.push_back(CounterFamily(
      "relview_replayed_updates_total", "Journal records replayed",
      static_cast<double>(metrics_.replayed())));
  out.push_back(CounterFamily(
      "relview_decisions_total", "Decision traces recorded",
      static_cast<double>(decisions_.total())));
  out.push_back(GaugeFamily("relview_published_version",
                            "Version of the published snapshot",
                            static_cast<double>(version())));
  out.push_back(SummaryFamily("relview_check_latency_seconds",
                              "Translatability-check latency",
                              metrics_.check_latency()));
  out.push_back(SummaryFamily("relview_apply_latency_seconds",
                              "Translation-apply latency",
                              metrics_.apply_latency()));
  const EngineStats eng = metrics_.engine_gauges();
#define RELVIEW_ENGINE_GAUGE_FAMILY(name)                            \
  out.push_back(GaugeFamily("relview_engine_" #name,                 \
                          "Incremental-engine counter " #name,     \
                          static_cast<double>(eng.name)));
  RELVIEW_ENGINE_STAT_FIELDS(RELVIEW_ENGINE_GAUGE_FAMILY)
#undef RELVIEW_ENGINE_GAUGE_FAMILY
  // Group-commit observability: cohort sizes are raw batch counts, so the
  // family is built by hand rather than via SummaryFamily (which scales
  // its samples from nanoseconds to seconds).
  const LatencyHistogram& cohorts = metrics_.commit_cohorts();
  MetricFamily cohort_fam{
      "relview_commit_cohort_size",
      "Batches made durable per group-commit leader fsync", "summary", {}};
  cohort_fam.samples.push_back(
      {"{quantile=\"0.5\"}", static_cast<double>(cohorts.QuantileNanos(0.5))});
  cohort_fam.samples.push_back(
      {"{quantile=\"0.99\"}",
       static_cast<double>(cohorts.QuantileNanos(0.99))});
  cohort_fam.samples.push_back(
      {"{quantile=\"1\"}", static_cast<double>(cohorts.max_nanos())});
  cohort_fam.samples.push_back(
      {"_count", static_cast<double>(cohorts.count())});
  cohort_fam.samples.push_back(
      {"_sum", static_cast<double>(cohorts.total_nanos())});
  out.push_back(std::move(cohort_fam));
  out.push_back(CounterFamily(
      "relview_commit_stalls_total",
      "Group-commit stall-watchdog firings (leader held its cohort past "
      "the commit_stall_ms deadline)",
      static_cast<double>(metrics_.commit_stalls())));
  out.push_back(GaugeFamily(
      "relview_commit_pending_batches",
      "Batches appended since the last group-commit leader sampled its "
      "cohort (pending-cohort depth)",
      static_cast<double>(
          commit_pending_gauge_.load(std::memory_order_relaxed))));
  // The store pointer is fixed at construction and every value read
  // through it below is a relaxed atomic, so the scrape never needs
  // writer_mu_.
  const DurableStore* store = store_.get();
  if (store != nullptr) {
    out.push_back(SummaryFamily("relview_journal_fsync_seconds",
                                "Journal fsync latency (all segments)",
                                *store->fsync_latency()));
    out.push_back(CounterFamily(
        "relview_journal_fsyncs_total", "Successful journal fsyncs",
        static_cast<double>(store->fsyncs())));
    out.push_back(GaugeFamily("relview_journal_segments",
                              "Live journal segment files",
                              static_cast<double>(store->segment_count())));
    out.push_back(GaugeFamily(
        "relview_durable_seq",
        "Accepted records made durable since the seed instance",
        static_cast<double>(store->seq())));
    out.push_back(GaugeFamily(
        "relview_checkpoint_last_seq",
        "Sequence number of the newest durable checkpoint",
        static_cast<double>(store->last_checkpoint_seq())));
    out.push_back(GaugeFamily(
        "relview_compaction_lag_records",
        "Records accepted since the last durable checkpoint (replay "
        "debt on crash)",
        static_cast<double>(store->compaction_lag())));
    out.push_back(CounterFamily(
        "relview_checkpoints_written_total",
        "Checkpoints written by this incarnation",
        static_cast<double>(store->checkpoints_written())));
    out.push_back(CounterFamily(
        "relview_segments_compacted_total",
        "Journal segments deleted by compaction",
        static_cast<double>(store->segments_compacted())));
    out.push_back(GaugeFamily(
        "relview_journal_unsynced_bytes",
        "Journal bytes staged by group commit that no leader fsync has "
        "covered yet (crash-loss exposure of the commit window)",
        static_cast<double>(store->unsynced_bytes())));
  }
  out.push_back(GaugeFamily(
      "relview_pending_writers",
      "Writers inside ApplyBatch (running or queued on the writer mutex)",
      static_cast<double>(pending_writers())));
  return out;
}

}  // namespace relview
