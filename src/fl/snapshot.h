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
// TreeEngine) each declare their payload once, as one function template
// over the archive built from the pieces below, and checkpoint through
// one Checkpointer.  A layout change made here must bump
// kSnapshotVersion; the committed tests/data/compat_*.snap files, written
// by an older build, are what catch one made by mistake.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

// Each io_* piece takes the archive first: a util::ByteSink writes the
// state, a util::ByteSource reads into it.  The pieces whose halves
// differ on purpose (the prologue check, the validating queue reader,
// the nested state blobs, the metrics view) still take one call.

// The source throws std::runtime_error, naming `engine`, at the first
// field that does not match `prologue`.
void io_prologue(util::ByteSink& sink, const SnapshotPrologue& prologue,
                 const char* engine);
void io_prologue(util::ByteSource& source, const SnapshotPrologue& prologue,
                 const char* engine);

// A field stored as another type: an `int` tier as i64, a `char` flag as
// a bool, an enum as u64.
template <class Stored, class Archive, class Field>
void io_as(Archive& ar, Field& field) {
  Stored stored = static_cast<Stored>(field);
  ar.io(stored);
  if constexpr (Archive::reading) field = static_cast<Field>(stored);
}

// An RNG stream's position: its four state words.
template <class Archive, class Rng>
void io_rng(Archive& ar, Rng& rng) {
  std::array<std::uint64_t, 4> state = rng.state();
  for (std::uint64_t& word : state) ar.io(word);
  if constexpr (Archive::reading) rng.set_state(state);
}

void io_update(auto& ar, auto& update) {
  ar.io(update.weights);
  ar.io(update.num_samples);
  ar.io(update.train_loss);
  ar.io(update.train_accuracy);
}

// All but `active`, which only the tree stores.
void io_pending(auto& ar, auto& round) {
  ar.io(round.selected);
  ar.io_size(round.updates, 24);
  for (auto& update : round.updates) io_update(ar, update);
  ar.io(round.dispatch_version);
  ar.io(round.latency);
}

void io_records(auto& ar, auto& records) {
  ar.io_size(records, 8 * 7);
  for (auto& r : records) {
    ar.io(r.round);
    ar.io(r.virtual_time);
    ar.io(r.round_latency);
    ar.io(r.global_accuracy);
    ar.io(r.global_loss);
    ar.io(r.train_loss);
    io_as<std::int64_t>(ar, r.selected_tier);
    ar.io(r.selected_clients);
  }
}

// A map as a checked count of entries at least `min_bytes` long, then
// each entry in key order: its key, then what `value(mapped)` declares.
// Reading inserts (or, for a repeated key, overwrites) each entry.
template <class Archive, class Map>
void io_map(Archive& ar, Map& map, std::size_t min_bytes, const auto& value) {
  std::size_t count = map.size();
  ar.io_count(count, min_bytes);
  if constexpr (Archive::reading) {
    for (std::size_t i = 0; i < count; ++i) {
      typename Map::key_type key{};
      ar.io(key);
      value(map[key]);
    }
  } else {
    for (auto& [key, mapped] : map) {
      ar.io(key);
      value(mapped);
    }
  }
}

// The queue's clock, seq counter and pending events in (time, seq) order.
void put_queue(util::ByteSink& sink, const sim::EventQueue& queue);
// Throws std::runtime_error, naming the queue event, unless the clock is
// finite and the events come in strictly increasing (time, seq) order,
// each at a time no earlier than the clock (+inf included, NaN not), with
// a seq below the stored next seq and an actor below `actors` (the loop's
// tier, client or node count, which its handlers index with).
void get_queue(util::ByteSource& source, sim::EventQueue& queue,
               std::size_t actors);
template <class Archive, class Queue>
void io_queue(Archive& ar, Queue& queue, std::size_t actors) {
  if constexpr (Archive::reading) get_queue(ar, queue, actors);
  else put_queue(ar, queue);
}

// A nested state blob (fault model, policy, churn model, lifecycle
// hooks) as one length-prefixed string: what `save` writes (nothing when
// it is absent), handed to `restore` when that is present and the blob
// is not empty.
using SaveFn = std::function<void(util::ByteSink&)>;
using RestoreFn = std::function<void(util::ByteSource&)>;
void io_blob(util::ByteSink& sink, const SaveFn& save, const RestoreFn&);
void io_blob(util::ByteSource& source, const SaveFn&, const RestoreFn& restore);

// An object's save_state/restore_state pair as one blob.
template <class Archive, class State>
void io_state(Archive& ar, State& state) {
  io_blob(ar, [&](util::ByteSink& blob) { state.save_state(blob); },
          [&](util::ByteSource& blob) { state.restore_state(blob); });
}

// The global registry as a blob; reading restores it into the global
// registry, so a resumed run's totals equal the uninterrupted run's for
// every deterministic instrument.
void io_metrics(util::ByteSink& sink);
void io_metrics(util::ByteSource& source);

// A restored payload's range checks: a CRC-valid payload can still hold
// a value its loop would index out of bounds with.  Throws
// std::runtime_error naming `engine` and `field` unless `ok`.
struct SnapshotCheck {
  const char* engine;
  void operator()(bool ok, const char* field) const {
    if (!ok) {
      throw std::runtime_error(std::string(engine) + ": snapshot " + field +
                               " is out of range");
    }
  }
};

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
                    const SaveFn& save);
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
