// Test support: an unpromoted ValSnap snapshot pinned on a helper thread for
// the holder's lifetime. Every commit while it stands lies above its stamp,
// so the MVCC publish pushes a version node instead of stamping the slot's
// reign (src/tm/mvcc.h): tests hold one to keep an assertion on the push path.
#ifndef SPECTM_TESTS_TM_HELD_SNAPSHOT_H_
#define SPECTM_TESTS_TM_HELD_SNAPSHOT_H_

#include <atomic>
#include <thread>

#include "src/tm/variants.h"

namespace spectm {

class HeldSnapshot {
 public:
  HeldSnapshot()
      : pinner_([this] {
          ValSnap::ShortTx tx;  // pins at construction; never locks, so never promotes
          pinned_.store(true, std::memory_order_release);
          while (!release_.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          tx.CommitMixed({});
        }) {
    while (!pinned_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  ~HeldSnapshot() {
    release_.store(true, std::memory_order_release);
    pinner_.join();
  }

  HeldSnapshot(const HeldSnapshot&) = delete;
  HeldSnapshot& operator=(const HeldSnapshot&) = delete;

 private:
  std::atomic<bool> pinned_{false};
  std::atomic<bool> release_{false};
  std::thread pinner_;  // last: starts once the flags exist
};

}  // namespace spectm

#endif  // SPECTM_TESTS_TM_HELD_SNAPSHOT_H_
