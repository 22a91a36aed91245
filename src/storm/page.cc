#include "storm/page.h"

#include <cstring>
#include <vector>

#include "util/hash.h"

namespace bestpeer::storm {

uint16_t Page::ReadU16(size_t off) const {
  uint16_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
uint32_t Page::ReadU32(size_t off) const {
  uint32_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
uint64_t Page::ReadU64(size_t off) const {
  uint64_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
void Page::WriteU16(size_t off, uint16_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}
void Page::WriteU32(size_t off, uint32_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}
void Page::WriteU64(size_t off, uint64_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}

void Page::Init(uint32_t page_id) {
  std::memset(data_, 0, kPageSize);
  WriteU32(0, kMagic);
  WriteU32(4, page_id);
  set_slot_count(0);
  set_free_off(static_cast<uint16_t>(kHeaderSize));
}

size_t Page::FreeSpace() const {
  size_t dir_start = kPageSize - kSlotEntrySize * slot_count();
  size_t gap = dir_start - free_off();
  // A fresh insert may need a new slot entry unless a tombstone is free.
  bool have_tombstone = false;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) {
      have_tombstone = true;
      break;
    }
  }
  if (!have_tombstone) {
    if (gap < kSlotEntrySize) return 0;
    gap -= kSlotEntrySize;
  }
  return gap;
}

size_t Page::FragmentedSpace() const {
  size_t live = 0;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != kTombstone) live += SlotLen(s);
  }
  size_t used = free_off() - kHeaderSize;
  return used - live;
}

void Page::SetSlot(uint16_t slot, uint16_t offset, uint16_t len) {
  WriteU16(SlotDirPos(slot), offset);
  WriteU16(SlotDirPos(slot) + 2, len);
}

Result<uint16_t> Page::Insert(const uint8_t* data, uint16_t len) {
  // Find a reusable tombstone slot, if any.
  uint16_t slot = slot_count();
  bool reuse = false;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) {
      slot = s;
      reuse = true;
      break;
    }
  }
  size_t dir_start =
      kPageSize - kSlotEntrySize * (slot_count() + (reuse ? 0 : 1));
  if (free_off() + static_cast<size_t>(len) > dir_start) {
    return Status::ResourceExhausted("page full");
  }
  uint16_t off = free_off();
  std::memcpy(data_ + off, data, len);
  set_free_off(static_cast<uint16_t>(off + len));
  if (!reuse) set_slot_count(static_cast<uint16_t>(slot_count() + 1));
  SetSlot(slot, off, len);
  return slot;
}

Result<std::pair<const uint8_t*, uint16_t>> Page::Read(uint16_t slot) const {
  if (slot >= slot_count()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  if (SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot) + " deleted");
  }
  return std::make_pair(data_ + SlotOffset(slot), SlotLen(slot));
}

Status Page::Delete(uint16_t slot) {
  if (slot >= slot_count()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  if (SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot) +
                            " already deleted");
  }
  SetSlot(slot, kTombstone, 0);
  return Status::OK();
}

bool Page::SlotLive(uint16_t slot) const {
  return slot < slot_count() && SlotOffset(slot) != kTombstone;
}

void Page::Compact() {
  std::vector<uint8_t> scratch(kPageSize);
  uint16_t write_off = kHeaderSize;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) continue;
    uint16_t len = SlotLen(s);
    std::memcpy(scratch.data() + write_off, data_ + SlotOffset(s), len);
    SetSlot(s, write_off, len);
    write_off = static_cast<uint16_t>(write_off + len);
  }
  std::memcpy(data_ + kHeaderSize, scratch.data() + kHeaderSize,
              write_off - kHeaderSize);
  set_free_off(write_off);
}

namespace {

constexpr uint64_t kChecksumMul = 0x9E3779B97F4A7C15ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// One lane step. For a fixed lane value it is a bijection of the word
/// (xor), and for a fixed word a bijection of the lane (xor, odd multiply,
/// rotate), so changing any single word always changes the final lane.
inline uint64_t Absorb(uint64_t lane, uint64_t word) {
  return Rotl((lane ^ word) * kChecksumMul, 31);
}

}  // namespace

uint64_t Page::ComputeChecksum() const {
  // Covers everything except the checksum field [16, 24): the two header
  // words seed lanes 0 and 1, then the body streams through four
  // independent lanes, eight bytes per lane step.
  static_assert((kPageSize - kHeaderSize) % 8 == 0);
  uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                      0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  lane[0] = Absorb(lane[0], ReadU64(0));
  lane[1] = Absorb(lane[1], ReadU64(8));
  constexpr size_t kBlock = 32;
  size_t off = kHeaderSize;
  for (; off + kBlock <= kPageSize; off += kBlock) {
    for (int l = 0; l < 4; ++l) {
      lane[l] = Absorb(lane[l], ReadU64(off + 8 * static_cast<size_t>(l)));
    }
  }
  for (int l = 0; off < kPageSize; off += 8, ++l) {
    lane[l] = Absorb(lane[l], ReadU64(off));
  }
  // Fold the lanes (each step a bijection of the incoming lane), then
  // finish with an avalanche so every lane bit reaches every output bit.
  uint64_t h = lane[0];
  for (int l = 1; l < 4; ++l) h = Absorb(h, lane[l]);
  return Mix64(h);
}

void Page::UpdateChecksum() { WriteU64(16, ComputeChecksum()); }

bool Page::VerifyChecksum() const { return ReadU64(16) == ComputeChecksum(); }

}  // namespace bestpeer::storm
