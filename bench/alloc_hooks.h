// Heap-allocation accounting for the allocation-discipline oracles.
// alloc_hooks.cpp replaces the global operator new/delete with counting
// versions; a binary that links it (the claims driver, the steady-state
// allocation test) reads the counters through these two functions.

#pragma once

#include <cstdint>

namespace cmtos::bench {

/// Number of operator-new calls since process start.  Deterministic in a
/// single-threaded run, so snapshot deltas are diffable across runs.
std::int64_t heap_allocs();

/// Net live heap bytes allocated through operator new (usable sizes).
std::int64_t heap_bytes();

}  // namespace cmtos::bench
