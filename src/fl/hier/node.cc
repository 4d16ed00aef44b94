#include "fl/hier/node.h"

#include <stdexcept>

#include "fl/snapshot.h"

namespace tifl::fl::hier {

void AggregatorNode::save_state(util::ByteSink& sink) const {
  sink.put_u64(slot_count());
  for (std::size_t s = 0; s < slot_count(); ++s) {
    sink.put_f32_vec(slot_models[s]);
    sink.put_u64(slot_updates[s]);
    sink.put_u64(slot_last_version[s]);
  }
  sink.put_f32_vec(model);
  sink.put_u64(version);
  sink.put_u64(deliveries);
  sink.put_u64(since_report);
  sink.put_u64(update_mass);
  sink.put_bool(offline);

  sink.put_u64(tiers.size());
  for (const std::vector<std::size_t>& members : tiers) {
    sink.put_size_vec(members);
  }
  sink.put_f64_vec(tier_lr);
  sink.put_f64_vec(staleness_sum);
  for (const PendingTierRound& round : pending) {
    put_pending(sink, round);
    sink.put_bool(round.active);
  }
  sink.put_size_vec(retry_count);
  for (const util::Rng& rng : selection_rng) put_rng(sink, rng);
  for (const util::Rng& rng : latency_rng) put_rng(sink, rng);
  put_rng(sink, link_rng);
}

void AggregatorNode::restore_state(util::ByteSource& source) {
  const std::size_t slots = source.checked_count(source.get_u64(), 24);
  if (slots != slot_count()) {
    throw std::runtime_error(
        "hier::AggregatorNode: snapshot slot count mismatch");
  }
  for (std::size_t s = 0; s < slots; ++s) {
    slot_models[s] = source.get_f32_vec();
    slot_updates[s] = static_cast<std::size_t>(source.get_u64());
    slot_last_version[s] = static_cast<std::size_t>(source.get_u64());
  }
  model = source.get_f32_vec();
  version = static_cast<std::size_t>(source.get_u64());
  deliveries = static_cast<std::size_t>(source.get_u64());
  since_report = static_cast<std::size_t>(source.get_u64());
  update_mass = static_cast<std::size_t>(source.get_u64());
  offline = source.get_bool();

  const std::size_t tier_count = source.checked_count(source.get_u64(), 8);
  if (tier_count != tiers.size()) {
    throw std::runtime_error(
        "hier::AggregatorNode: snapshot tier count mismatch");
  }
  for (std::vector<std::size_t>& members : tiers) {
    members = source.get_size_vec();
  }
  tier_lr = source.get_f64_vec();
  staleness_sum = source.get_f64_vec();
  for (PendingTierRound& round : pending) {
    get_pending(source, round);
    round.active = source.get_bool();
  }
  retry_count = source.get_size_vec();
  for (util::Rng& rng : selection_rng) get_rng(source, rng);
  for (util::Rng& rng : latency_rng) get_rng(source, rng);
  get_rng(source, link_rng);
}

}  // namespace tifl::fl::hier
