// Eager-locking value-based STM ("val-eager") — the paper's other §6 proposal: "a
// value-based STM that locks words when reading could be used to simplify the
// programming model in our designs which use value-based validation."
//
// Every Read acquires the word's lock (like a short RW access, but dynamically
// sized); Writes buffer the new value in the acquired entry. Because everything read
// is pinned until commit, there is NO validation anywhere: no version numbers, no
// value comparison, no commit counters, no §2.4 special-case reasoning — the
// simplified programming model the paper promises, priced as reduced read
// concurrency (two readers of one word conflict) and abort-on-locked.
//
// Shares the val layout's lock-bit protocol, so it interoperates with ValShortTm /
// ValFullTm transactions on the same words.
#ifndef SPECTM_TM_VAL_EAGER_H_
#define SPECTM_TM_VAL_EAGER_H_

#include <cassert>
#include <vector>

#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"
#include "src/tm/val_short.h"
#include "src/tm/val_word.h"

namespace spectm {

template <typename ValidationT = NonReuseValidation>
class ValEagerTm {
 public:
  using Validation = ValidationT;
  using Slot = ValSlot;

  class Tx {
   public:
    Tx() = default;
    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    void Start() {
      desc_ = &DescOf<ValDomainTag>();
      log_.clear();
      active_ = true;
      user_abort_ = false;
      wrote_ = false;
    }

    // Acquires the word (idempotently for repeat accesses) and returns the current
    // transactional value — the buffered write if one exists, else the displaced
    // original.
    Word Read(Slot* s) {
      if (!active_) {
        return 0;
      }
      Entry* e = Acquire(s);
      if (e == nullptr) {
        return Fail();
      }
      return e->written ? e->new_value : e->old_value;
    }

    void Write(Slot* s, Word value) {
      if (!active_) {
        return;
      }
      assert((value & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
      Entry* e = Acquire(s);
      if (e == nullptr) {
        Fail();
        return;
      }
      e->new_value = value;
      e->written = true;
      wrote_ = true;
    }

    void AbortTx() { user_abort_ = true; }
    bool ok() const { return active_; }

    // Commit = one release store per acquired word: the new value where written, the
    // displaced original elsewhere. Nothing to validate — locks pinned everything.
    bool Commit() {
      if (!active_) {
        ReleaseAll();
        OnAbort();
        return false;
      }
      active_ = false;
      if (user_abort_) {
        ReleaseAll();
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (wrote_) {
        // For interop with validating readers: every held word, before the
        // releasing stores.
        WriteSignature<Validation::kHasBloomRing> sig;
        for (const Entry& e : log_) {
          sig.Add(&e.slot->word);
        }
        PublishWriterCommit<Validation, ValProbe<ValDomainTag>>(desc_, sig);
      }
      for (const Entry& e : log_) {
        e.slot->word.store(e.written ? e.new_value : e.old_value,
                           std::memory_order_release);
      }
      log_.clear();
      desc_->stats.commits.fetch_add(1, std::memory_order_relaxed);
      desc_->backoff.OnCommit();
      return true;
    }

   private:
    struct Entry {
      Slot* slot;
      Word old_value;
      Word new_value;
      bool written;
    };

    Entry* Acquire(Slot* s) {
      for (Entry& e : log_) {
        if (e.slot == s) {
          return &e;
        }
      }
      Word w = s->word.load(std::memory_order_relaxed);
      while (true) {
        if (ValIsLocked(w)) {
          if (ValOwnerOf(w) == desc_) {
            // Held by a concurrent engine record of this thread — forbidden by the
            // one-live-transaction contract; treat as conflict in release builds.
            assert(false && "word locked by this thread outside this transaction");
          }
          return nullptr;  // never wait while holding locks
        }
        if (s->word.compare_exchange_weak(w, MakeValLocked(desc_),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
          log_.push_back(Entry{s, w, 0, false});
          return &log_.back();
        }
      }
    }

    Word Fail() {
      active_ = false;
      return 0;
    }

    void ReleaseAll() {
      for (const Entry& e : log_) {
        e.slot->word.store(e.old_value, std::memory_order_release);
      }
      log_.clear();
    }

    void OnAbort() {
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      desc_->backoff.OnAbort();
    }

    TxDesc* desc_ = nullptr;
    std::vector<Entry> log_;
    bool active_ = false;
    bool user_abort_ = false;
    bool wrote_ = false;
  };

  static TxStats& StatsForCurrentThread() { return DescOf<ValDomainTag>().stats; }
};

// Family with eager full transactions over the val layout; short/single ops are the
// ordinary val-short ones (same lock protocol).
struct ValEager {
  using Validation = NonReuseValidation;
  using Slot = ValSlot;
  using Full = ValEagerTm<NonReuseValidation>;
  using Short = ValShortTm<NonReuseValidation>;
  using FullTx = Full::Tx;
  using ShortTx = Short::ShortTx;

  static Word SingleRead(Slot* s) { return Short::SingleRead(s); }
  static void SingleWrite(Slot* s, Word v) { Short::SingleWrite(s, v); }
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    return Short::SingleCas(s, expected, desired);
  }
  static void RawWrite(Slot* s, Word v) {
    assert((v & kLockBit) == 0);
    s->word.store(v, std::memory_order_relaxed);
  }
  static Word RawRead(Slot* s) { return s->word.load(std::memory_order_relaxed); }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_EAGER_H_
