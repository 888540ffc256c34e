/// \file
/// UpdateService: the concurrent, journaled serving layer over
/// ViewTranslator.
///
/// Concurrency model — single writer, many readers:
///   * Writers (Apply / ApplyBatch) stage under a writer mutex and drive
///     the translator's check-and-apply mutators directly, so the
///     incremental engine's view index and base-chase fixpoint stay warm
///     across the whole stream. A batch saves the database relation first
///     and reinstalls it on any rejection, so the committed state (and
///     every outstanding snapshot) is untouched unless the batch commits.
///     The journal fsync runs after the writer mutex is released (group
///     commit, see ApplyBatch), so the next batch stages meanwhile.
///   * Readers call Snapshot() and get an immutable, versioned view of the
///     database and its X-projection behind shared_ptrs. Publishing a new
///     version is a pointer swap under a short exclusive lock, so readers
///     never wait on translatability checks or translations — they at most
///     contend for the microseconds of the swap itself.
///
/// Batches are all-or-nothing: if any update in the batch is rejected, the
/// staged copy is discarded, the committed state is untouched, and the
/// BatchResult reports which update failed and why (the Theorem 3/8/9
/// verdict). With a durable store, a batch is journaled and fsync'd
/// *before* the new state is published — see journal.h for why replay is
/// sound.

#ifndef RELVIEW_SERVICE_UPDATE_SERVICE_H_
#define RELVIEW_SERVICE_UPDATE_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "service/metrics.h"
#include "service/recovery.h"
#include "service/update.h"
#include "util/annotations.h"
#include "util/status.h"
#include "view/translator.h"

namespace relview {

/// An immutable, versioned observation of the served state. Cheap to copy
/// (two shared_ptrs); stays valid however many writes land afterwards.
struct ViewSnapshot {
  /// Commit count when this snapshot was published (0 = seed).
  uint64_t version = 0;
  std::shared_ptr<const Relation> view;      ///< pi_X(database)
  std::shared_ptr<const Relation> database;  ///< full instance over U
};

/// Per-stage wall-clock attribution for one ApplyBatch call, filled in as
/// the batch moves through the pipeline. The sharded layer sums the
/// per-shard values and adds the fan-out fields, so the net layer's wide
/// event (obs/wide_event.h) reads one struct regardless of topology.
struct BatchTimings {
  int64_t stage_nanos = 0;     ///< Translatability checks + staging.
  int64_t append_nanos = 0;    ///< Journal append (the fsync is not in
                               ///< it; see commit_wait_nanos).
  int64_t commit_wait_nanos = 0;  ///< Waiting for / running the cohort
                                  ///< fsync.
  uint64_t cohort_batches = 0;  ///< Size of the cohort whose fsync this
                                ///< thread led (0 = it led none).
  bool led_cohort = false;      ///< This thread ran the cohort fsync.
  // Fan-out attribution, filled by ShardedService::ApplyBatch:
  uint64_t shard_mask = 0;   ///< Bit i set = shard i received updates.
  int shards_touched = 0;
  int straggler_shard = -1;  ///< Slowest shard in the fan-out.
  int64_t straggler_nanos = 0;
};

/// Outcome of ApplyBatch.
struct BatchResult {
  /// OK on commit; the first failing update's status otherwise.
  Status status;
  /// Index of the rejected update within the batch, -1 on success.
  int failed_index = -1;
  /// The rejected update's translatability verdict / diagnostic.
  std::string detail;
  /// Where the batch's wall-clock went (valid on success and failure).
  BatchTimings timings;

  /// True when the whole batch committed.
  bool ok() const { return status.ok(); }
};

/// Persistence configuration for UpdateService::Create.
struct ServiceOptions {
  /// When store.dir is non-empty, the service persists through a
  /// DurableStore: rotated journal segments plus periodic checkpoints,
  /// recovered on Create as newest-valid-checkpoint + journal-suffix
  /// replay. Empty runs in-memory (no journal, nothing to fsync).
  StoreOptions store;
  /// Optional leader gathering window in microseconds: before sampling
  /// its cohort the leader sleeps this long so more concurrent batches
  /// can append behind it. 0 (default) syncs immediately — concurrency
  /// alone already forms cohorts because appends accumulate while the
  /// previous leader's fsync is in flight.
  uint32_t group_window_us = 0;
  /// Commit stall watchdog: when > 0, a waiter stuck behind an
  /// active leader for longer than this deadline (a hung fsync, a leader
  /// descheduled mid-cohort) bumps relview_commit_stalls_total and forces
  /// a "commit_stall" wide event through the sampler — once per leader
  /// episode, not once per waiter. 0 disables the watchdog.
  uint32_t commit_stall_ms = 0;
};

/// The serving layer: a single-writer/multi-reader facade over a bound
/// ViewTranslator with versioned snapshots, write-ahead journaling and
/// (with `ServiceOptions::store`) checkpointed crash recovery.
class UpdateService {
 public:
  /// Wraps a bound translator. With options.store.dir set, the store is
  /// opened first and recovers a previous incarnation's state into the
  /// translator (checkpoint + journal suffix).
  static Result<std::unique_ptr<UpdateService>> Create(
      ViewTranslator translator, ServiceOptions options = {});

  /// Current immutable snapshot. Never blocks on a writer's translation
  /// work; safe from any thread.
  ViewSnapshot Snapshot() const RELVIEW_EXCLUDES(snapshot_mu_);

  /// Version of the latest committed state (0 = seed, +1 per commit).
  uint64_t version() const;

  /// Applies a single update: check, journal, publish. Serialized with
  /// other writers. Returns kUntranslatable (verdict in the message) when
  /// the paper's test rejects it; the served state is then unchanged.
  Status Apply(const ViewUpdate& update) RELVIEW_EXCLUDES(writer_mu_);

  /// Applies a batch atomically. All updates validate and translate on a
  /// staged copy; one rejection rolls the whole batch back. A committed
  /// batch advances the version by exactly 1. On rejection the returned
  /// status carries the batch position (Status::batch_index()), matching
  /// BatchResult::failed_index.
  ///
  /// The one write path (group commit): stage, append the records
  /// without fsync and build the snapshot under writer_mu_; release it;
  /// wait in AwaitDurable until a leader fsync covers the records; only
  /// then count the commit and publish. Concurrent callers share one
  /// fsync per cohort, and a lone writer makes a cohort of one, which is
  /// fsync-per-batch. Without a store the append and the wait are
  /// skipped. A failed fsync poisons the service's commit path: that
  /// batch and every later one fail until the store is reopened.
  BatchResult ApplyBatch(const std::vector<ViewUpdate>& updates)
      RELVIEW_EXCLUDES(writer_mu_, commit_mu_);

  /// Forces a checkpoint of the committed state at the current sequence
  /// number (then compacts fully-covered journal segments). Serialized
  /// with writers. Requires the checkpointed store (options.store.dir);
  /// returns FailedPrecondition otherwise. Returns the covered sequence
  /// number.
  Result<uint64_t> Checkpoint() RELVIEW_EXCLUDES(writer_mu_);

  /// The durable store backing this service, or null when running
  /// in-memory. Exposes recovery info, sequence numbers and compaction
  /// counters.
  const DurableStore* store() const { return store_.get(); }

  /// Accept/reject counters and latency histograms for this service.
  const ServiceMetrics& metrics() const { return metrics_; }

  /// Writers currently inside ApplyBatch — running or queued on the
  /// writer mutex (journal fsync time included). The network front-end's
  /// admission gate bounds this from the socket side; the gauge exposes
  /// the same queue depth as the service itself sees it.
  int pending_writers() const {
    return pending_writers_.load(std::memory_order_relaxed);
  }

  /// Per-update decision provenance: one DecisionTrace per staged update
  /// (accepted or rejected), most recent kept up to the log's capacity.
  const DecisionLog& decisions() const { return decisions_; }

  /// Registers this service's collectors with `registry` under the
  /// sections `section` (counters, latency summaries, engine gauges,
  /// journal fsync latency) and `section + "_decisions"` — with the
  /// default "service", the decisions section keeps its legacy name
  /// "decisions". Distinct section names let several services (the
  /// front-end's tenants) share one registry. The service must outlive
  /// the registry or be unregistered first. Counter families are exported
  /// seqlock-consistently (see ServiceMetrics::ReadConsistent): a scrape
  /// racing a writer never sees a rejection's kind counter without its
  /// code counter, or a half-published engine-gauge snapshot.
  /// When `shard` is >= 0 the registration key becomes
  /// `section + "_shard_<shard>"` and every sample additionally carries a
  /// `shard="<shard>"` label, so N shards of one logical service export N
  /// distinguishable per-shard families (mirroring the per-tenant
  /// `service="..."` labels).
  void RegisterTelemetry(TelemetryRegistry* registry,
                         const std::string& section = "service",
                         int shard = -1) const;

  /// Number of journal records replayed during Create (0 without a store).
  uint64_t replayed_updates() const { return metrics_.replayed(); }

  /// The attribute universe U (immutable after Create).
  const Universe& universe() const { return universe_; }
  /// The view attributes X (immutable after Create).
  const AttrSet& view_attrs() const { return view_attrs_; }
  /// The complement attributes Y (immutable after Create).
  const AttrSet& complement_attrs() const { return complement_attrs_; }

 private:
  UpdateService(ViewTranslator translator,
                std::unique_ptr<DurableStore> store, uint32_t group_window_us,
                uint32_t commit_stall_ms);

  /// Checkpoint body; caller holds writer_mu_.
  Result<uint64_t> CheckpointLocked() RELVIEW_REQUIRES(writer_mu_);

  /// Blocks until every store record up to `target` is fsync'd (returns
  /// OK), electing this thread as commit leader whenever none is active:
  /// the leader samples the cohort appended so far, fsyncs once for all
  /// of it outside any lock, and wakes the waiters. A failed fsync
  /// poisons the commit path (commit_poison_) and fails every current and
  /// future waiter — the store must be reopened (fsyncgate: the dirty
  /// pages may be gone, so "retry" could ack data that was never written).
  /// Fills `timings` (cohort size / led_cohort / wait duration) for the
  /// caller's BatchResult; when this thread leads, the fsync runs under a
  /// "commit.cohort_fsync" span in the *leader's* trace, and riders'
  /// "commit.await_durable" spans carry the leader's trace id — the two
  /// halves of the shared-fsync attribution.
  Status AwaitDurable(uint64_t target, BatchTimings* timings)
      RELVIEW_EXCLUDES(commit_mu_, writer_mu_);

  /// Builds (but does not install) a snapshot of the current translator
  /// state at `version`.
  std::shared_ptr<const ViewSnapshot> BuildSnapshotLocked(uint64_t version)
      RELVIEW_REQUIRES(writer_mu_);

  /// Installs `snap` unless a newer version is already published. Acked
  /// writers can reach the publish step out of version order; snapshots
  /// are cumulative (each holds the full database), so installing only
  /// the newest is correct.
  void PublishIfNewer(std::shared_ptr<const ViewSnapshot> snap)
      RELVIEW_EXCLUDES(snapshot_mu_);

  /// Builds the Prometheus families for RegisterTelemetry's collector.
  /// Runs inside the metrics seqlock read protocol; pure reads only.
  std::vector<MetricFamily> CollectFamilies() const;

  /// Checks `u` and, when translatable, applies it to the translator in
  /// place (maintaining the engine's caches). Records metrics and pushes a
  /// DecisionTrace (batch_index = position within the originating batch);
  /// sets *mutated when the database actually changed. On rejection
  /// returns the failing status, annotated with the batch position.
  Status StageOne(const ViewUpdate& u, int batch_index, std::string* detail,
                  bool* mutated) RELVIEW_REQUIRES(writer_mu_);

  // Writer-side authoritative state; mutated only under writer_mu_.
  mutable Mutex writer_mu_;
  ViewTranslator translator_ RELVIEW_GUARDED_BY(writer_mu_);
  /// Null for an in-memory service. The pointer is fixed at construction
  /// (store() hands it out lock-free). Its appends and checkpoints run
  /// under writer_mu_; Sync() is internally synchronized and is the one
  /// call the commit leader makes without writer_mu_; its counter
  /// accessors are relaxed atomics, safe from any thread (telemetry).
  const std::unique_ptr<DurableStore> store_;
  uint64_t version_ RELVIEW_GUARDED_BY(writer_mu_) = 0;

  // Group-commit coordination (AwaitDurable). The commit mutex is taken
  // for durability only with writer_mu_ *released* — writers stage under
  // writer_mu_, drop it, then coordinate durability here, which is what
  // lets batch K+1 stage while batch K's fsync is in flight.
  const uint32_t group_window_us_;
  mutable Mutex commit_mu_ RELVIEW_ACQUIRED_AFTER(writer_mu_);
  mutable CondVar commit_cv_;
  /// Highest store sequence number any waiter has appended (the next
  /// leader's fsync target).
  uint64_t commit_appended_ RELVIEW_GUARDED_BY(commit_mu_) = 0;
  /// Highest sequence number a successful leader fsync has covered.
  uint64_t commit_synced_ RELVIEW_GUARDED_BY(commit_mu_) = 0;
  /// True while some thread is the commit leader (fsync in flight).
  bool commit_leader_active_ RELVIEW_GUARDED_BY(commit_mu_) = false;
  /// Batches appended since the last leader sampled its cohort; the
  /// commit-cohort histogram's raw material.
  uint64_t commit_pending_batches_ RELVIEW_GUARDED_BY(commit_mu_) = 0;
  /// Relaxed mirror of commit_pending_batches_ for the telemetry scrape
  /// (the collector must not take commit_mu_ — a hung leader would then
  /// hang /metrics too, exactly when an operator needs it).
  std::atomic<uint64_t> commit_pending_gauge_{0};
  /// Trace id of the thread currently leading the cohort fsync (0 when no
  /// leader or the leader's request is untraced): riders stamp it on
  /// their await spans so a rider's trace points at the fsync it rode.
  uint64_t commit_leader_trace_ RELVIEW_GUARDED_BY(commit_mu_) = 0;
  /// Stall watchdog (ServiceOptions::commit_stall_ms): set once a stall
  /// has been reported for the current leader episode, cleared when the
  /// leader finishes, so N stuck waiters produce one report.
  bool commit_stall_reported_ RELVIEW_GUARDED_BY(commit_mu_) = false;
  const uint32_t commit_stall_ms_;
  /// First fsync failure, sticky: every subsequent waiter fails with it.
  Status commit_poison_ RELVIEW_GUARDED_BY(commit_mu_);

  // Immutable after construction: copies of the translator's schema
  // handles, so accessors and telemetry never touch the guarded
  // translator_ off the writer thread.
  const Universe universe_;
  const AttrSet view_attrs_;
  const AttrSet complement_attrs_;

  // Reader-visible published state. snapshot_mu_ guards only the pointer;
  // published_version_ is the lock-free fast-path gate: readers re-take
  // the shared lock only when the version actually changed (see
  // Snapshot()), so a reader herd neither serializes on the rwlock word
  // nor starves the writer's exclusive acquisition. PublishIfNewer runs
  // after writer_mu_ is released; nothing takes writer_mu_ while holding
  // snapshot_mu_.
  mutable SharedMutex snapshot_mu_ RELVIEW_ACQUIRED_AFTER(writer_mu_);
  std::shared_ptr<const ViewSnapshot> snapshot_ RELVIEW_GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> published_version_{0};
  const uint64_t service_id_;

  mutable ServiceMetrics metrics_;
  DecisionLog decisions_;
  /// Writers inside ApplyBatch (running or parked on writer_mu_); see
  /// pending_writers().
  std::atomic<int> pending_writers_{0};
};

}  // namespace relview

#endif  // RELVIEW_SERVICE_UPDATE_SERVICE_H_
