/// \file
/// Checkpoint: a checksummed, atomically-installed snapshot of the served
/// database instance, tagged with the journal sequence number it covers.
///
/// A checkpoint bounds recovery work and journal growth: startup loads the
/// newest valid checkpoint and replays only the journal suffix past its
/// sequence number, and segments fully covered by a durable checkpoint can
/// be compacted away (see recovery.h).
///
/// File formats (text, one file per checkpoint). Row format:
///
///   rvckpt1 <seq> <arity> <nrows> <fnv64-hex>\n
///   <v> <v> ... <v>\n        (one line of raw Value ids per row, nrows
///   ...                       lines; this block is the checksummed body)
///
/// Columnar format — the same header fields under a new magic, with the
/// body swapped for a ColumnStore dictionary-page block (column_store.h):
///
///   rvckpt2 <seq> <arity> <nrows> <fnv64-hex>\n
///   rvcols1 <arity> <nrows>\n
///   <dict-size> <raw> <raw> ...\n      (one line per column)
///   <code> <code> ...\n                (one line per column)
///
/// Each repeated value costs one small code integer instead of a full raw
/// id, so columnar checkpoints shrink with duplication the way the
/// in-memory columnar store does. DurableStore writes the row format;
/// readers auto-detect the magic, so a store directory holding rvckpt2
/// files (written by WriteCheckpoint with CheckpointFormat::kColumnar)
/// keeps recovering.
///
/// <seq> is the number of journal records the snapshot covers (i.e. the
/// state equals seed + the first <seq> journaled updates), and <fnv64-hex>
/// is the 16-hex-digit FNV-1a hash of the body bytes. Writes are
/// crash-atomic: the file is written to "<path>.tmp", fsync'd, renamed
/// over <path>, and the directory fsync'd — a crash at any point leaves
/// either the old state or the new, never a half-written checkpoint that
/// parses. Readers verify magic, counts and checksum and return a typed
/// kCorruption status on any mismatch, so recovery can fall back to an
/// older checkpoint or a full replay.
#ifndef RELVIEW_SERVICE_CHECKPOINT_H_
#define RELVIEW_SERVICE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "relational/relation.h"
#include "util/status.h"

namespace relview {

/// On-disk body layout of a checkpoint file.
enum class CheckpointFormat {
  kRows,      ///< rvckpt1: one line of raw Value ids per row.
  kColumnar,  ///< rvckpt2: dictionary pages + per-column code vectors.
};

/// A decoded checkpoint: the snapshot relation plus the journal sequence
/// number it covers.
struct CheckpointData {
  /// Journal records covered: the snapshot equals seed + first `seq`
  /// accepted updates.
  uint64_t seq = 0;
  /// The database instance at `seq` (schema = the attrs passed on read).
  Relation database{AttrSet()};
};

/// Serializes `database` (covering `seq` journal records) into the
/// checkpoint wire format, header + checksummed body.
std::string EncodeCheckpoint(const Relation& database, uint64_t seq,
                             CheckpointFormat format = CheckpointFormat::kRows);

/// Writes a checkpoint crash-atomically: tmp file + fsync + rename +
/// directory fsync. Failpoints: "checkpoint.write" (error|short),
/// "checkpoint.fsync" (error), "checkpoint.flip" (flip a body bit before
/// writing), "checkpoint.crash_before_rename" / "
/// checkpoint.crash_after_rename" (crash).
Status WriteCheckpoint(const std::string& path, const Relation& database,
                       uint64_t seq,
                       CheckpointFormat format = CheckpointFormat::kRows);

/// Reads and fully verifies the checkpoint at `path`, rebuilding the
/// relation over `attrs` (which must match the stored arity). The format
/// is auto-detected from the magic, so callers need not know how a file
/// was written. Returns kNotFound when the file does not exist and
/// kCorruption when any integrity check fails (bad magic, count mismatch,
/// checksum mismatch, truncated body).
Result<CheckpointData> ReadCheckpoint(const std::string& path,
                                      const AttrSet& attrs);

}  // namespace relview

#endif  // RELVIEW_SERVICE_CHECKPOINT_H_
