#include "gen/schedule.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

std::size_t FrameSchedule::total_packets() const {
  std::size_t total = 0;
  for (const Frame& f : frames) total += f.packet_slots.size();
  return total;
}

std::vector<std::size_t> FrameSchedule::burst_profile() const {
  std::vector<std::size_t> profile(horizon, 0);
  for (const Frame& f : frames)
    for (std::size_t slot : f.packet_slots) ++profile[slot];
  return profile;
}

std::size_t FrameSchedule::max_burst() const {
  std::size_t best = 0;
  for (std::size_t b : burst_profile()) best = std::max(best, b);
  return best;
}

void FrameSchedule::validate() const {
  for (const Frame& f : frames) {
    // Positive, not just non-negative: the R_w priority distribution is
    // undefined at w <= 0 (rw_key_from_uniform rejects it), and a frame
    // that cannot carry value has no business on the link.  Validating
    // here once lets every ranker drop its defensive clamp.
    OSP_REQUIRE_MSG(f.weight > 0, "frame weight must be positive, got "
                                      << f.weight);
    OSP_REQUIRE(std::is_sorted(f.packet_slots.begin(), f.packet_slots.end()));
    OSP_REQUIRE(std::adjacent_find(f.packet_slots.begin(),
                                   f.packet_slots.end()) ==
                f.packet_slots.end());
    for (std::size_t slot : f.packet_slots) OSP_REQUIRE(slot < horizon);
  }
}

Instance FrameSchedule::to_instance(Capacity link_capacity) const {
  OSP_REQUIRE(link_capacity >= 1);
  validate();
  CsrArray<SetId> slot_frames;
  std::vector<std::size_t> sizes, fill;
  pack_slot_frames(*this, slot_frames, sizes, fill);

  InstanceBuilder builder;
  for (const Frame& f : frames) builder.add_set(f.weight);
  for (std::size_t slot = 0; slot < horizon; ++slot) {
    if (slot_frames.row_size(slot) == 0) continue;
    builder.add_element(slot_frames.row(slot), link_capacity);
  }
  return builder.build();
}

void pack_slot_frames(const FrameSchedule& schedule,
                      CsrArray<SetId>& slot_frames,
                      std::vector<std::size_t>& sizes,
                      std::vector<std::size_t>& fill) {
  sizes.assign(schedule.horizon, 0);
  for (const Frame& f : schedule.frames)
    for (std::size_t slot : f.packet_slots) ++sizes[slot];
  slot_frames.assign_sizes(sizes.data(), sizes.size());
  fill.assign(schedule.horizon, 0);
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi)
    for (std::size_t slot : schedule.frames[fi].packet_slots)
      slot_frames.mutable_row(slot)[fill[slot]++] = static_cast<SetId>(fi);
}

}  // namespace osp
