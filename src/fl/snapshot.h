// Versioned, CRC-guarded snapshot container — the durable envelope for a
// complete resumable run state (extending the nn::checkpoint flat-weight
// format from "just the model" to "the whole engine").
//
// File layout (little-endian):
//   8-byte magic "TIFLSNP1"
//   u32  format version (kSnapshotVersion)
//   u64  payload byte count
//   u32  crc32 over the payload bytes
//   payload (engine-defined, built with util::ByteSink)
//
// Write path durability: the snapshot is written to a temporary file in
// the *same directory*, fsync'd, and renamed over the target — so readers
// only ever observe either the previous complete snapshot or the new one,
// never a torn write (the rethinkdb serializer discipline).  A process
// killed mid-checkpoint therefore always leaves a loadable file behind.
//
// Read path safety: magic, version, size (validated against the actual
// file size before any allocation) and CRC are all checked before a byte
// of payload reaches the engine; every failure is a clean
// std::runtime_error.
//
// The async loops (AsyncEngine's static and dynamic loops, hier::
// TreeEngine) build their payloads from the codec below, one writer and
// one reader per piece, and checkpoint through one Checkpointer.  A
// layout change made here must bump kSnapshotVersion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fl/aggregator.h"
#include "fl/client.h"
#include "fl/metrics.h"
#include "util/rng.h"
#include "util/serial.h"

namespace tifl::obs {
class Counter;
}
namespace tifl::sim {
class EventLogWriter;
class EventQueue;
}  // namespace tifl::sim

namespace tifl::fl {

inline constexpr char kSnapshotMagic[8] = {'T', 'I', 'F', 'L',
                                           'S', 'N', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

// Atomically replaces `path` with a snapshot wrapping `payload`; returns
// the total bytes written (header + payload).  Throws std::runtime_error
// on any I/O failure (the temp file is removed on error).
std::size_t save_snapshot(const std::string& path, std::string_view payload);

// Loads and validates the snapshot at `path`, returning its payload.
// Throws std::runtime_error on missing file, foreign magic, unsupported
// version, a size header inconsistent with the file, or a CRC mismatch.
std::string load_snapshot(const std::string& path);

// --- payload codec ----------------------------------------------------------

// Loop tags: a snapshot resumes only on the loop that wrote it.
inline constexpr std::uint64_t kSnapStatic = 0;
inline constexpr std::uint64_t kSnapDynamic = 1;
inline constexpr std::uint64_t kSnapHier = 0x48495231;  // "HIR1"

// Every payload opens with these, checked before any state is read.
struct SnapshotPrologue {
  std::uint64_t tag = 0;
  std::uint64_t fingerprint = 0;
  std::size_t tiers_or_nodes = 0;
  std::size_t clients = 0;
  std::size_t weights = 0;
  std::string policy;
};

void put_prologue(util::ByteSink& sink, const SnapshotPrologue& prologue);
// Throws std::runtime_error, naming `engine`, at the first mismatch.
void check_prologue(util::ByteSource& source, const SnapshotPrologue& expected,
                    const char* engine);

void put_rng(util::ByteSink& sink, const util::Rng& rng);
void get_rng(util::ByteSource& source, util::Rng& rng);
void put_update(util::ByteSink& sink, const LocalUpdate& update);
LocalUpdate get_update(util::ByteSource& source);
// All but `active`, which only the tree stores.
void put_pending(util::ByteSink& sink, const PendingTierRound& round);
void get_pending(util::ByteSource& source, PendingTierRound& round);
void put_records(util::ByteSink& sink, const std::vector<RoundRecord>& records);
std::vector<RoundRecord> get_records(util::ByteSource& source);
// The queue's clock, seq counter and pending events in (time, seq) order.
void put_queue(util::ByteSink& sink, const sim::EventQueue& queue);
// Throws std::runtime_error, naming the queue event, unless the clock is
// finite and the events come in strictly increasing (time, seq) order,
// each at a time no earlier than the clock (+inf included, NaN not), with
// a seq below the stored next seq and an actor below `actors` (the loop's
// tier, client or node count, which its handlers index with).
void get_queue(util::ByteSource& source, sim::EventQueue& queue,
               std::size_t actors);

// A nested state blob (fault model, policy, churn model, lifecycle
// hooks) as one length-prefixed string; an absent `save` stores it empty.
// get_blob skips an empty blob and an absent `restore`.
void put_blob(util::ByteSink& sink,
              const std::function<void(util::ByteSink&)>& save);
void get_blob(util::ByteSource& source,
              const std::function<void(util::ByteSource&)>& restore);

// The global registry; get_metrics restores it into the global registry,
// so a resumed run's totals equal the uninterrupted run's for every
// deterministic instrument.
void put_metrics(util::ByteSink& sink);
void get_metrics(util::ByteSource& source);

// --- checkpointing ----------------------------------------------------------

// A run's durability points, checked between event batches (a pure
// function of event times, never a queue event).  `log`, when open, is fsync'd after every snapshot and before
// the crash.
class Checkpointer {
 public:
  Checkpointer(double every, std::string path,
               sim::EventLogWriter* log = nullptr);

  // A resumed run re-arms from its own cadence (a resume without
  // checkpointing never writes).
  void resume(double now);
  // Once `now` reaches the due point: writes the payload `save` builds,
  // counts (checkpoint.*) and traces it, and re-arms after `now`.
  void write_if_due(double now, std::size_t version, std::size_t events,
                    const std::function<void(util::ByteSink&)>& save);
  // True when write_if_due(now, ...) would write.
  bool due(double now) const { return now >= next_due_; }
  // The injected server crash (sim::FaultConfig::crash_at, 0 = off):
  // throws sim::SimulatedCrash once the next event reaches it, before
  // anything is popped or drawn, so the streams stay aligned with the
  // uninterrupted run.
  void crash_if_due(double crash_at, double next_event) const;
  double next_due() const { return next_due_; }  // stored in snapshots

 private:
  double every_;
  std::string path_;
  sim::EventLogWriter* log_;
  double next_due_ = std::numeric_limits<double>::infinity();
  obs::Counter& writes_;
  obs::Counter& bytes_;
  obs::Counter& write_ns_;
};

}  // namespace tifl::fl
