// Heap allocations made by the calling thread, for encode.allocs_per_call.
// alloc_count.cpp replaces the global operator new/delete set with one that
// counts per thread, so concurrent encodes on the pool do not see each
// other's allocations.
#pragma once

#include <cstdint>

namespace roundbench {

std::uint64_t thread_allocations();

}  // namespace roundbench
