#include "common/workspace.hpp"

#include <array>

#include "common/pool.hpp"

namespace exaclim {
namespace {

using SlotArray =
    std::array<PoolBuffer,
               static_cast<std::size_t>(ScratchSlot::kSlotCount)>;

SlotArray& ThreadSlots() {
  thread_local SlotArray slots;
  return slots;
}

}  // namespace

const char* ScratchSlotName(ScratchSlot slot) {
  switch (slot) {
    case ScratchSlot::kGemmPackA: return "gemm.pack_a";
    case ScratchSlot::kGemmPackB: return "gemm.pack_b";
    case ScratchSlot::kLossProbs: return "loss.probs";
    case ScratchSlot::kStagingDecode: return "staging.decode";
    case ScratchSlot::kExchangeFusion: return "exchange.fusion";
    case ScratchSlot::kWirePack: return "comm.wire_pack";
    case ScratchSlot::kGroupIncoming: return "comm.group_incoming";
    case ScratchSlot::kConvGradWeights: return "conv.grad_weights";
    case ScratchSlot::kSlotCount: break;
  }
  return "?";
}

float* AcquireScratch(ScratchSlot slot, std::size_t elems) {
  PoolBuffer& buf = ThreadSlots()[static_cast<std::size_t>(slot)];
  if (buf.capacity() < elems || buf.null()) {
    // Grow (or first touch, including elems == 0): request at least one
    // element so the pool hands back a real block and the
    // never-returns-nullptr contract holds.
    buf = AcquirePoolBuffer(elems > 0 ? elems : 1);
  }
  return buf.data();
}

std::uint16_t* AcquireScratchU16(ScratchSlot slot, std::size_t elems) {
  // Two packed words per float element; round up so odd counts fit.
  return reinterpret_cast<std::uint16_t*>(
      AcquireScratch(slot, (elems + 1) / 2));
}

void WarmThreadScratch() {
  for (std::size_t i = 0; i < static_cast<std::size_t>(ScratchSlot::kSlotCount);
       ++i) {
    const auto slot = static_cast<ScratchSlot>(i);
    if (ScratchWarmElems(slot) > 0) AcquireScratch(slot, ScratchWarmElems(slot));
  }
}

std::size_t ScratchCapacity(ScratchSlot slot) {
  return ThreadSlots()[static_cast<std::size_t>(slot)].capacity();
}

}  // namespace exaclim
