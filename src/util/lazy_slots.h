// A fixed number of values, each built on its first use and immutable after,
// safe to fill from many threads at once.
//
// Routing's tables (BGP columns, intra-AS matrices) are filled lazily and
// read on every simulated hop, from every thread that probes. Each slot is an
// atomic pointer: a thread that finds it empty builds a fresh value and
// publishes it with a compare-exchange (release); a thread that loses the
// race frees its own value and returns the winner's. A hit costs one acquire
// load, a plain load on x86.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace revtr::util {

template <typename T>
class LazySlots {
 public:
  explicit LazySlots(std::size_t size) : slots_(size) {}
  ~LazySlots() { clear(); }
  LazySlots(const LazySlots&) = delete;
  LazySlots& operator=(const LazySlots&) = delete;

  // The value in slot `i`, built by `fill(T&)` on a default-constructed T
  // when the slot is empty. `fill` may run on several racing threads; only
  // one result is kept, so it must be a function of its inputs alone.
  template <typename Fill>
  const T& get(std::size_t i, Fill&& fill) const {
    std::atomic<T*>& slot = slots_[i];
    if (const T* hit = slot.load(std::memory_order_acquire)) return *hit;
    auto fresh = std::make_unique<T>();
    fill(*fresh);
    T* published = nullptr;
    if (!slot.compare_exchange_strong(published, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return *published;  // Another thread filled it first; drop ours.
    }
    filled_.fetch_add(1, std::memory_order_relaxed);
    return *fresh.release();
  }

  // Values published since construction or the last clear(), counting a
  // slot again each time it is refilled after reset().
  std::size_t filled() const noexcept {
    return filled_.load(std::memory_order_relaxed);
  }

  // Empty slot `i`, or every slot. Not safe against a concurrent get(),
  // and references that get() returned for an emptied slot dangle.
  void reset(std::size_t i) {
    const std::unique_ptr<T> held(
        slots_[i].exchange(nullptr, std::memory_order_relaxed));
  }
  void clear() {
    for (std::size_t i = 0; i < slots_.size(); ++i) reset(i);
    filled_.store(0, std::memory_order_relaxed);
  }

 private:
  // Owning: each non-null pointer came from fresh.release() in get().
  mutable std::vector<std::atomic<T*>> slots_;
  mutable std::atomic<std::size_t> filled_{0};
};

}  // namespace revtr::util
