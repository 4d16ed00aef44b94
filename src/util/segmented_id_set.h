// Ordered set of ids drawn from a fixed universe [0, universe), stored as
// fixed-span blocks of sorted vectors — the order-statistics container
// behind the async engine's million-client bookkeeping.
//
// A flat sorted std::vector gives O(n) memmove per insert/erase: at 1M
// clients every churn event shuffles ~8MB, which is exactly the per-event
// cost that capped the event loop.  Splitting the id space into
// contiguous blocks of `kBlockSpan` ids bounds every memmove by one block
// (~32KB) and makes rank/select a short scan over per-block counts:
//
//   insert/erase  O(block)            — one lower_bound + small memmove
//   contains      O(log block)
//   kth / rank    O(universe/span + log block)
//
// All operations are deterministic functions of the call sequence; the
// iteration order is ascending id order, identical to the flat sorted
// vector this replaces — which is what keeps engine runs bit-identical
// after the swap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace tifl::util {

class SegmentedIdSet {
 public:
  static constexpr std::size_t kBlockSpan = 4096;

  explicit SegmentedIdSet(std::size_t universe)
      : universe_(universe),
        blocks_((universe + kBlockSpan - 1) / kBlockSpan) {}

  std::size_t universe() const noexcept { return universe_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool contains(std::size_t id) const {
    const std::vector<std::size_t>& block = blocks_[block_of(id)];
    return std::binary_search(block.begin(), block.end(), id);
  }

  // Inserts `id`; no-op when already present.
  void insert(std::size_t id) {
    std::vector<std::size_t>& block = blocks_[block_of(id)];
    const auto it = std::lower_bound(block.begin(), block.end(), id);
    if (it != block.end() && *it == id) return;
    block.insert(it, id);
    ++size_;
  }

  // Erases `id`; no-op when absent.
  void erase(std::size_t id) {
    std::vector<std::size_t>& block = blocks_[block_of(id)];
    const auto it = std::lower_bound(block.begin(), block.end(), id);
    if (it == block.end() || *it != id) return;
    block.erase(it);
    --size_;
  }

  // k-th smallest member (0-based); throws when k >= size().
  std::size_t kth(std::size_t k) const {
    if (k >= size_) {
      throw std::out_of_range("SegmentedIdSet: rank out of range");
    }
    for (const std::vector<std::size_t>& block : blocks_) {
      if (k < block.size()) return block[k];
      k -= block.size();
    }
    throw std::logic_error("SegmentedIdSet: inconsistent size");  // unreachable
  }

  // Number of members strictly below `id` (the id's rank if present).
  std::size_t rank(std::size_t id) const {
    const std::size_t b = block_of(id);
    std::size_t below = 0;
    for (std::size_t i = 0; i < b; ++i) below += blocks_[i].size();
    const std::vector<std::size_t>& block = blocks_[b];
    return below + static_cast<std::size_t>(
                       std::lower_bound(block.begin(), block.end(), id) -
                       block.begin());
  }

  // Visits members in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<std::size_t>& block : blocks_) {
      for (std::size_t id : block) fn(id);
    }
  }

  // Ascending flat copy — the bridge to interfaces that take plain
  // vectors (snapshot writing, final membership reporting).
  std::vector<std::size_t> to_vector() const {
    std::vector<std::size_t> out;
    out.reserve(size_);
    for_each([&out](std::size_t id) { out.push_back(id); });
    return out;
  }

  void clear() {
    for (std::vector<std::size_t>& block : blocks_) block.clear();
    size_ = 0;
  }

 private:
  std::size_t block_of(std::size_t id) const {
    if (id >= universe_) {
      throw std::out_of_range("SegmentedIdSet: id outside universe");
    }
    return id / kBlockSpan;
  }

  std::size_t universe_;
  std::size_t size_ = 0;
  std::vector<std::vector<std::size_t>> blocks_;
};

}  // namespace tifl::util
