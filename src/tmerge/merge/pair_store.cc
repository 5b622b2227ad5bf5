#include "tmerge/merge/pair_store.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "tmerge/core/status.h"

namespace tmerge::merge {

reid::CropRef MakeCropRef(const track::TrackedBox& box) {
  return reid::CropRef{box.detection_id, box.gt_id, box.visibility,
                       box.glared, box.noise_seed};
}

PairContext::PairContext(const track::TrackingResult& result,
                         std::vector<metrics::TrackPairKey> pairs)
    : result_(&result), pairs_(std::move(pairs)) {
  std::unordered_map<track::TrackId, std::size_t> index_of;
  index_of.reserve(result.tracks.size());
  for (std::size_t i = 0; i < result.tracks.size(); ++i) {
    index_of.emplace(result.tracks[i].id, i);
  }
  track_indices_.reserve(pairs_.size());
  for (const auto& [a, b] : pairs_) {
    auto ita = index_of.find(a);
    auto itb = index_of.find(b);
    TMERGE_CHECK(ita != index_of.end() && itb != index_of.end());
    track_indices_.emplace_back(ita->second, itb->second);
  }
  // Materialize each paired track's CropRefs once; a track in k pairs is
  // converted once, not k times, and the selectors' inner loops index a
  // flat vector instead of rebuilding CropRefs per probe.
  track_crops_.resize(result.tracks.size());
  for (const auto& [ia, ib] : track_indices_) {
    for (std::size_t t : {ia, ib}) {
      if (!track_crops_[t].empty() || result.tracks[t].boxes.empty()) continue;
      track_crops_[t].reserve(result.tracks[t].boxes.size());
      for (const auto& box : result.tracks[t].boxes) {
        track_crops_[t].push_back(MakeCropRef(box));
      }
    }
  }
}

const std::vector<reid::CropRef>& PairContext::CropsA(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return track_crops_[track_indices_[index].first];
}

const std::vector<reid::CropRef>& PairContext::CropsB(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return track_crops_[track_indices_[index].second];
}

const track::Track& PairContext::TrackA(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return result_->tracks[track_indices_[index].first];
}

const track::Track& PairContext::TrackB(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return result_->tracks[track_indices_[index].second];
}

std::int64_t PairContext::BoxPairCount(std::size_t index) const {
  return static_cast<std::int64_t>(TrackA(index).size()) *
         static_cast<std::int64_t>(TrackB(index).size());
}

double PairContext::SpatialDistance(std::size_t index) const {
  const track::Track& a = TrackA(index);
  const track::Track& b = TrackB(index);
  // Order by time: earlier track's last box vs later track's first box.
  const track::Track& earlier = a.last_frame() <= b.last_frame() ? a : b;
  const track::Track& later = a.last_frame() <= b.last_frame() ? b : a;
  return core::Distance(earlier.boxes.back().box.Center(),
                        later.boxes.front().box.Center());
}

std::int32_t PairContext::TemporalGap(std::size_t index) const {
  const track::Track& a = TrackA(index);
  const track::Track& b = TrackB(index);
  std::int32_t gap = std::max(a.first_frame() - b.last_frame(),
                              b.first_frame() - a.last_frame());
  return std::max(gap, 0);
}

std::int64_t PairContext::TotalBoxPairs() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < num_pairs(); ++i) total += BoxPairCount(i);
  return total;
}

namespace {

constexpr std::int64_t kFreeSlot = -1;
constexpr std::size_t kInitialSlots = 16;

}  // namespace

std::size_t BoxPairSampler::Slot(std::int64_t cell) const {
  const int bits = std::countr_zero(drawn_.size());
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(cell) * 0x9E3779B97F4A7C15ULL) >>
      (64 - bits));
}

bool BoxPairSampler::Contains(std::int64_t cell) const {
  const std::size_t mask = drawn_.size() - 1;
  for (std::size_t i = Slot(cell);; i = (i + 1) & mask) {
    if (drawn_[i] == cell) return true;
    if (drawn_[i] == kFreeSlot) return false;
  }
}

bool BoxPairSampler::Insert(std::int64_t cell) {
  if (2 * (static_cast<std::size_t>(sampled_count_) + 1) > drawn_.size()) {
    // Double (or create) the table and rehash.
    std::vector<std::int64_t> old(
        std::max(kInitialSlots, 2 * drawn_.size()), kFreeSlot);
    old.swap(drawn_);
    const std::size_t mask = drawn_.size() - 1;
    for (std::int64_t kept : old) {
      if (kept == kFreeSlot) continue;
      std::size_t i = Slot(kept);
      while (drawn_[i] != kFreeSlot) i = (i + 1) & mask;
      drawn_[i] = kept;
    }
  }
  const std::size_t mask = drawn_.size() - 1;
  for (std::size_t i = Slot(cell);; i = (i + 1) & mask) {
    if (drawn_[i] == cell) return false;
    if (drawn_[i] == kFreeSlot) {
      drawn_[i] = cell;
      return true;
    }
  }
}

std::pair<std::int32_t, std::int32_t> BoxPairSampler::Sample(core::Rng& rng) {
  TMERGE_CHECK(!Exhausted());
  std::int64_t total = rows_ * cols_;
  // Rejection sampling while the grid is sparsely sampled; once more than
  // half is used, switch to drawing from the materialized remainder.
  if (!dense_mode_ && sampled_count_ * 2 < total) {
    for (;;) {
      std::int64_t cell = rng.UniformInt(0, total - 1);
      if (Insert(cell)) {
        ++sampled_count_;
        return {static_cast<std::int32_t>(cell / cols_),
                static_cast<std::int32_t>(cell % cols_)};
      }
    }
  }
  if (!dense_mode_) {
    dense_mode_ = true;
    remaining_.reserve(total - sampled_count_);
    for (std::int64_t cell = 0; cell < total; ++cell) {
      if (!Contains(cell)) remaining_.push_back(cell);
    }
    std::vector<std::int64_t>().swap(drawn_);  // No longer needed.
  }
  TMERGE_CHECK(!remaining_.empty());
  std::size_t pick = rng.Index(remaining_.size());
  std::int64_t cell = remaining_[pick];
  remaining_[pick] = remaining_.back();
  remaining_.pop_back();
  ++sampled_count_;
  return {static_cast<std::int32_t>(cell / cols_),
          static_cast<std::int32_t>(cell % cols_)};
}

}  // namespace tmerge::merge
