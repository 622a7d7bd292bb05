#pragma once

#include <cstdint>
#include <span>

namespace exaclim {

/// C(m,n) = alpha * op(A) * op(B) + beta * C, row-major.
///
/// op(A) is A (m,k) or A^T when trans_a (A stored as (k,m)); likewise for B.
/// Runs on the packed register-blocked microkernel engine
/// (tensor/gemm_kernel.hpp, DESIGN §10), the only GEMM in the library,
/// parallelised over MR-strips of C with ThreadPool::Global(); the
/// per-element FP contraction order is fixed by the KC walk and never
/// depends on the thread count. This is the stand-in for cuDNN's GEMM
/// kernels (Sec VI). beta == 0 overwrites C without reading it; k == 0 or
/// alpha == 0 skips the product entirely.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/// Convenience span-checked wrapper used by tests.
void GemmChecked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, std::span<const float> a,
                 std::span<const float> b, float beta, std::span<float> c);

}  // namespace exaclim
