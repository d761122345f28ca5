#ifndef SSTBAN_BENCH_COMMON_ALLOC_COUNTER_H_
#define SSTBAN_BENCH_COMMON_ALLOC_COUNTER_H_

// A counting replacement of the global operator new and delete
// (alloc_counter.cc). It counts every heap allocation made while counting
// is on, including the std::function, std::string and std::vector
// allocations that the tensor layer's MemoryTracker cannot see. A bench
// gets it by listing alloc_counter.cc among its own sources: the linker
// takes a static-archive member only for a symbol it is already looking
// for, so from a library it would not reliably replace operator new.

namespace sstban::bench {

// Zeroes the count and starts counting allocations on every thread.
void StartCountingAllocs();

// Stops counting and returns the allocations counted since the start.
long long StopCountingAllocs();

}  // namespace sstban::bench

#endif  // SSTBAN_BENCH_COMMON_ALLOC_COUNTER_H_
