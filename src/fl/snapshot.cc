#include "fl/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wall_time.h"
#include "sim/event_log.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"

namespace tifl::fl {

namespace {

// Directory of `path` ("." for bare filenames) — the temp file must live
// on the same filesystem for rename() to be atomic.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

void fsync_or_throw(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("snapshot: fsync failed for " + what + ": " +
                             std::strerror(errno));
  }
}

}  // namespace

std::size_t save_snapshot(const std::string& path, std::string_view payload) {
  util::ByteSink header;
  header.put_bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.put_u32(kSnapshotVersion);
  header.put_u64(payload.size());
  header.put_u32(util::crc32(payload));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot create " + tmp + ": " +
                             std::strerror(errno));
  }
  bool ok = false;
  try {
    auto write_all = [&](const char* data, std::size_t size) {
      std::size_t done = 0;
      while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
          throw std::runtime_error("snapshot: write failed for " + tmp +
                                   ": " + std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
      }
    };
    write_all(header.bytes().data(), header.bytes().size());
    write_all(payload.data(), payload.size());
    fsync_or_throw(fd, tmp);
    ok = true;
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  ::close(fd);
  (void)ok;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: rename to " + path + " failed: " +
                             std::strerror(errno));
  }
  // Persist the rename itself: fsync the containing directory so the new
  // name survives a crash of the whole host, not just the process.
  const int dirfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return header.size() + payload.size();
}

std::string load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("snapshot: cannot open " + path);
  }
  char magic[sizeof(kSnapshotMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("snapshot: bad magic in " + path);
  }
  char fixed[4 + 8 + 4] = {};
  in.read(fixed, sizeof(fixed));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(fixed))) {
    throw std::runtime_error("snapshot: truncated header in " + path);
  }
  util::ByteSource header(std::string_view(fixed, sizeof(fixed)));
  const std::uint32_t version = header.get_u32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  const std::uint64_t payload_size = header.get_u64();
  const std::uint32_t expected_crc = header.get_u32();
  // Size the payload from the file itself before allocating: a corrupted
  // count must not drive a huge allocation or a silent short read.
  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos file_end = in.tellg();
  if (payload_start < 0 || file_end < payload_start ||
      payload_size !=
          static_cast<std::uint64_t>(file_end - payload_start)) {
    throw std::runtime_error("snapshot: size mismatch in " + path +
                             " (truncated or corrupt)");
  }
  in.seekg(payload_start);
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (in.gcount() != static_cast<std::streamsize>(payload.size())) {
    throw std::runtime_error("snapshot: truncated payload in " + path);
  }
  if (util::crc32(payload) != expected_crc) {
    throw std::runtime_error("snapshot: CRC mismatch in " + path +
                             " (corrupt payload)");
  }
  return payload;
}

void put_prologue(util::ByteSink& sink, const SnapshotPrologue& prologue) {
  sink.put_u64(prologue.tag);
  sink.put_u64(prologue.fingerprint);
  sink.put_u64(prologue.tiers_or_nodes);
  sink.put_u64(prologue.clients);
  sink.put_u64(prologue.weights);
  sink.put_string(prologue.policy);
}

void check_prologue(util::ByteSource& source, const SnapshotPrologue& expected,
                    const char* engine) {
  const auto fail = [engine](const std::string& what) {
    throw std::runtime_error(std::string(engine) + ": snapshot " + what);
  };
  const auto loop = [](std::uint64_t tag) -> std::string {
    return tag == kSnapStatic    ? "static"
           : tag == kSnapDynamic ? "dynamic"
           : tag == kSnapHier    ? "tree"
                                 : "unknown";
  };
  const std::uint64_t tag = source.get_u64();
  if (tag != expected.tag) {
    fail("was taken on the " + loop(tag) + " loop but this run takes the " +
         loop(expected.tag) + " loop");
  }
  if (source.get_u64() != expected.fingerprint) {
    fail("config fingerprint mismatch (resume requires the same seed, "
         "population, tree, schedule and fault configuration)");
  }
  if (source.get_u64() != expected.tiers_or_nodes ||
      source.get_u64() != expected.clients ||
      source.get_u64() != expected.weights) {
    fail("population/model dimensions mismatch");
  }
  const std::string policy = source.get_string();
  if (policy != expected.policy) {
    fail("was taken with policy '" + policy + "' but '" + expected.policy +
         "' is installed");
  }
}

void put_rng(util::ByteSink& sink, const util::Rng& rng) {
  for (std::uint64_t word : rng.state()) sink.put_u64(word);
}

void get_rng(util::ByteSource& source, util::Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = source.get_u64();
  rng.set_state(state);
}

void put_update(util::ByteSink& sink, const LocalUpdate& update) {
  sink.put_f32_vec(update.weights);
  sink.put_u64(update.num_samples);
  sink.put_f64(update.train_loss);
  sink.put_f64(update.train_accuracy);
}

LocalUpdate get_update(util::ByteSource& source) {
  LocalUpdate update;
  update.weights = source.get_f32_vec();
  update.num_samples = static_cast<std::size_t>(source.get_u64());
  update.train_loss = source.get_f64();
  update.train_accuracy = source.get_f64();
  return update;
}

void put_pending(util::ByteSink& sink, const PendingTierRound& round) {
  sink.put_size_vec(round.selected);
  sink.put_u64(round.updates.size());
  for (const LocalUpdate& update : round.updates) put_update(sink, update);
  sink.put_u64(round.dispatch_version);
  sink.put_f64(round.latency);
}

void get_pending(util::ByteSource& source, PendingTierRound& round) {
  round.selected = source.get_size_vec();
  const std::size_t count = source.checked_count(source.get_u64(), 24);
  round.updates.clear();
  round.updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    round.updates.push_back(get_update(source));
  }
  round.dispatch_version = static_cast<std::size_t>(source.get_u64());
  round.latency = source.get_f64();
}

void put_records(util::ByteSink& sink,
                 const std::vector<RoundRecord>& records) {
  sink.put_u64(records.size());
  for (const RoundRecord& r : records) {
    sink.put_u64(r.round);
    sink.put_f64(r.virtual_time);
    sink.put_f64(r.round_latency);
    sink.put_f64(r.global_accuracy);
    sink.put_f64(r.global_loss);
    sink.put_f64(r.train_loss);
    sink.put_i64(r.selected_tier);
    sink.put_size_vec(r.selected_clients);
  }
}

std::vector<RoundRecord> get_records(util::ByteSource& source) {
  const std::size_t count = source.checked_count(source.get_u64(), 8 * 7);
  std::vector<RoundRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RoundRecord r;
    r.round = static_cast<std::size_t>(source.get_u64());
    r.virtual_time = source.get_f64();
    r.round_latency = source.get_f64();
    r.global_accuracy = source.get_f64();
    r.global_loss = source.get_f64();
    r.train_loss = source.get_f64();
    r.selected_tier = static_cast<int>(source.get_i64());
    r.selected_clients = source.get_size_vec();
    records.push_back(std::move(r));
  }
  return records;
}

void put_queue(util::ByteSink& sink, const sim::EventQueue& queue) {
  sink.put_f64(queue.now());
  sink.put_u64(queue.next_seq());
  const std::vector<sim::Event> events = queue.pending();
  sink.put_u64(events.size());
  for (const sim::Event& e : events) {
    sink.put_f64(e.time);
    sink.put_u64(e.seq);
    sink.put_u64(e.kind);
    sink.put_u64(e.actor);
  }
}

void get_queue(util::ByteSource& source, sim::EventQueue& queue,
               std::size_t actors) {
  const double now = source.get_f64();
  const std::uint64_t next_seq = source.get_u64();
  const std::size_t count = source.checked_count(source.get_u64(), 32);
  if (!std::isfinite(now)) {
    throw std::runtime_error("snapshot: queue event clock is not finite");
  }
  // A CRC-valid section can still hold an actor the loop indexes out of
  // bounds with, a clock that would run backwards, or a NaN the heap
  // comparator cannot order.  An event at +inf is legitimate: a tier
  // member that never answers (ResourceProfile::unavailable) is
  // dispatched with an infinite latency.
  std::vector<sim::Event> events(count);
  for (std::size_t i = 0; i < count; ++i) {
    sim::Event& e = events[i];
    e.time = source.get_f64();
    e.seq = source.get_u64();
    e.kind = source.get_u64();
    e.actor = source.get_u64();
    const char* fault = nullptr;
    if (std::isnan(e.time) || e.time < now) {
      fault = "time is NaN or lies before the clock";
    } else if (e.seq >= next_seq) {
      fault = "seq is not below the next seq";
    } else if (e.actor >= actors) {
      fault = "actor is out of range";
    } else if (i > 0 && (e.time < events[i - 1].time ||
                         (e.time == events[i - 1].time &&
                          e.seq <= events[i - 1].seq))) {
      fault = "is out of strictly increasing (time, seq) order";
    }
    if (fault != nullptr) {
      throw std::runtime_error("snapshot: queue event " + std::to_string(i) +
                               ": " + fault);
    }
  }
  queue.restore(now, next_seq, events);
}

void put_blob(util::ByteSink& sink,
              const std::function<void(util::ByteSink&)>& save) {
  util::ByteSink blob;
  if (save) save(blob);
  sink.put_string(blob.bytes());
}

void get_blob(util::ByteSource& source,
              const std::function<void(util::ByteSource&)>& restore) {
  const std::string blob = source.get_string();
  if (!restore || blob.empty()) return;
  util::ByteSource blob_source(blob);
  restore(blob_source);
}

void put_metrics(util::ByteSink& sink) {
  put_blob(sink, [](util::ByteSink& blob) {
    obs::Registry::global().save(blob);
  });
}

void get_metrics(util::ByteSource& source) {
  get_blob(source, [](util::ByteSource& blob) {
    obs::Registry::global().restore(blob);
  });
}

// The counters are registered for every run, checkpointed or not.
Checkpointer::Checkpointer(double every, std::string path,
                           sim::EventLogWriter* log)
    : every_(every),
      path_(std::move(path)),
      log_(log),
      writes_(obs::Registry::global().counter("checkpoint.writes")),
      bytes_(obs::Registry::global().counter("checkpoint.bytes")),
      write_ns_(obs::Registry::global().counter("checkpoint.write_ns")) {
  if (every_ > 0.0) next_due_ = every_;
}

void Checkpointer::resume(double now) {
  if (every_ > 0.0) next_due_ = (std::floor(now / every_) + 1.0) * every_;
}

void Checkpointer::write_if_due(
    double now, std::size_t version, std::size_t events,
    const std::function<void(util::ByteSink&)>& save) {
  if (now < next_due_) return;
  const auto start = obs::wall_now();
  util::ByteSink sink;
  save(sink);
  const std::size_t bytes = save_snapshot(path_, sink.bytes());
  if (log_ != nullptr && log_->is_open()) log_->sync();
  writes_.add();
  bytes_.add(bytes);
  write_ns_.add(obs::wall_ns_count_since(start));
  if (obs::Tracer* t = obs::tracer()) {
    t->instant(now, "durability", "checkpoint", /*actor=*/0,
               {obs::field("version", version),
                obs::field("events", events)});
  }
  next_due_ = (std::floor(now / every_) + 1.0) * every_;
}

void Checkpointer::crash_if_due(double crash_at, double next_event) const {
  if (crash_at > 0.0 && next_event >= crash_at) {
    // A real SIGKILL would leave at most a torn log tail, which the
    // reader tolerates.
    if (log_ != nullptr && log_->is_open()) log_->sync();
    throw sim::SimulatedCrash(next_event);
  }
}

}  // namespace tifl::fl
