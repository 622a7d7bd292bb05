#pragma once

#include <cstddef>
#include <cstdint>

namespace exaclim {

/// Thread-local named scratch streams over the pooled arena.
///
/// Hot kernels (the packed GEMM engine, the reference GEMM panel walk,
/// the loss softmax) need per-task scratch buffers. Allocating them
/// inside the task puts a malloc/free pair on every dispatch; instead
/// each worker thread keeps one grow-only buffer per named stream,
/// handed out by AcquireScratch(). The buffers are pooled PoolBuffer
/// blocks (common/pool.hpp, DESIGN §12), so scratch draws from the same
/// accounted arena as Tensor storage and the ConvWorkspace panels: a
/// grow re-acquires from the next size bucket and returns the old block
/// to the free-lists, and the pool gauges (pool.live_bytes etc.)
/// include scratch bytes.
///
/// Contracts:
///  * The returned pointer is valid until the next AcquireScratch on the
///    same (thread, stream) with a size above the current capacity —
///    callers must not hold a pointer across a re-acquire that may grow
///    the buffer.
///  * Streams are independent: acquiring one never moves another.
///  * Contents are unspecified on acquire (previous use leaks through,
///    and a grow does NOT copy the old contents); kernels that need
///    zeros must clear explicitly.
///  * AcquireScratch never returns nullptr — elems == 0 on a never-grown
///    stream grows it to the smallest pool bucket, so the result is
///    always a valid pointer (asserted in test_pool.cpp; previously the
///    elems == 0 validity was unspecified).
///  * Thread-local by construction, so no locking and no false sharing;
///    a pointer must not be shared with other threads unless the owner
///    blocks until they finish (the fork/join pattern ParallelFor
///    guarantees).
enum class ScratchSlot {
  kGemmPackA = 0,   // MR-strip A panels of the packed GEMM engine
  kGemmPackB,       // NR-strip B panels of the packed GEMM engine
  kLossProbs,       // per-pixel softmax probabilities of the loss kernel
  kStagingDecode,   // per-channel decode panel of the sample reader
  kExchangeFusion,  // fused gradient staging of the hvd exchanger
  kWirePack,        // packed-binary16 encode buffer of the comm wire
  kGroupIncoming,   // partial-sum receive buffer of the group collectives
  kConvGradWeights,  // conv weights regrouped per tap for the data gradient
  kSlotCount,
};

/// Floats every ThreadPool worker acquires on `slot` when it starts (0:
/// none). The packed GEMM engine always acquires its pack streams at
/// exactly these full-block sizes (kGemmMC*kGemmKC and kGemmKC*kGemmNC,
/// static_asserted in tensor/gemm_kernel.cpp), so a worker's pack slots
/// reach their final size before it runs its first task, whichever conv
/// shards it happens to run — a warmed-up step never catches a worker's
/// first pack slot in an allocation census.
constexpr std::size_t ScratchWarmElems(ScratchSlot slot) {
  switch (slot) {
    case ScratchSlot::kGemmPackA: return std::size_t{144} * 256;
    case ScratchSlot::kGemmPackB: return std::size_t{256} * 2048;
    default: return 0;
  }
}

/// Acquires every slot with a non-zero ScratchWarmElems on the calling
/// thread. ThreadPool workers call it once when they start.
void WarmThreadScratch();

/// Human-readable stream name ("gemm.pack_a", ...), for diagnostics.
const char* ScratchSlotName(ScratchSlot slot);

/// Returns this thread's buffer for `slot`, grown to at least `elems`
/// floats (and at least one pool bucket). Never returns nullptr.
float* AcquireScratch(ScratchSlot slot, std::size_t elems);

/// Same stream viewed as packed binary16 words: grows the float buffer
/// to cover `elems` uint16 elements and reinterprets it. A slot must be
/// used with one element type at a time (the wire pack path owns
/// kWirePack); capacities still account in floats.
std::uint16_t* AcquireScratchU16(ScratchSlot slot, std::size_t elems);

/// Capacity (in floats) of this thread's buffer for `slot`; 0 before the
/// first acquire. Exposed for tests asserting reuse (no re-allocation
/// between same-sized acquires).
std::size_t ScratchCapacity(ScratchSlot slot);

}  // namespace exaclim
