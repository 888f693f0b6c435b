#include "db/hashkv.h"

#include <algorithm>

#include "platform/spin.h"

namespace asl::db {

HashKv::HashKv(std::size_t num_slots)
    : slots_(num_slots == 0 ? 1 : num_slots) {}

std::uint64_t HashKv::hash_key(std::string_view key) {
  // FNV-1a: cheap and uniform enough for bucket selection.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

HashKv::Home HashKv::home_of(std::string_view key) const {
  const std::uint64_t h = hash_key(key);
  return Home{h % slots_.size(), (h / slots_.size()) % kBucketsPerSlot};
}

void HashKv::method_enter_shared() const {
  LockGuard<AslMutex<McsLock>> guard(method_lock_);
  ++inflight_;
}

void HashKv::method_exit_shared() const {
  LockGuard<AslMutex<McsLock>> guard(method_lock_);
  --inflight_;
}

bool HashKv::put(std::string_view key, std::string_view value) {
  method_enter_shared();
  const Home home = home_of(key);
  Slot& slot = slots_[home.slot];
  bool inserted = false;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    Chain& chain = slot.buckets[home.bucket];
    bool found = false;
    for (Entry& e : chain) {
      if (e.key == key) {
        // assign() reuses the entry's capacity: an overwrite of a key whose
        // value is not growing never allocates (the steady-state contract).
        e.value.assign(value);
        found = true;
        break;
      }
    }
    if (!found) {
      chain.push_back(Entry{std::string(key), std::string(value)});
      inserted = true;
    }
  }
  if (inserted) {
    LockGuard<AslMutex<McsLock>> guard(size_lock_);
    ++size_;
  }
  method_exit_shared();
  return inserted;
}

std::optional<std::string> HashKv::get(std::string_view key) const {
  method_enter_shared();
  const Home home = home_of(key);
  const Slot& slot = slots_[home.slot];
  std::optional<std::string> result;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    for (const Entry& e : slot.buckets[home.bucket]) {
      if (e.key == key) {
        result = e.value;
        break;
      }
    }
  }
  method_exit_shared();
  return result;
}

bool HashKv::remove(std::string_view key) {
  method_enter_shared();
  const Home home = home_of(key);
  Slot& slot = slots_[home.slot];
  bool removed = false;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    Chain& chain = slot.buckets[home.bucket];
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].key == key) {
        chain[i] = std::move(chain.back());
        chain.pop_back();
        removed = true;
        break;
      }
    }
  }
  if (removed) {
    LockGuard<AslMutex<McsLock>> guard(size_lock_);
    --size_;
  }
  method_exit_shared();
  return removed;
}

std::size_t HashKv::size() const {
  LockGuard<AslMutex<McsLock>> guard(size_lock_);
  return size_;
}

void HashKv::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  // Exclusive method operation: hold the method lock and wait for in-flight
  // record operations to drain, then walk every slot under its lock.
  method_lock_.lock();
  while (inflight_ != 0) {
    // Record ops finish without needing the method lock to *exit*... they
    // do need it; avoid deadlock by releasing and re-acquiring.
    method_lock_.unlock();
    sched_yield();
    method_lock_.lock();
  }
  for (const Slot& slot : slots_) {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    for (const Chain& chain : slot.buckets) {
      for (const Entry& e : chain) {
        fn(e.key, e.value);
      }
    }
  }
  method_lock_.unlock();
}

std::size_t HashKv::longest_chain() const {
  std::size_t longest = 0;
  for (const Slot& slot : slots_) {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    for (const Chain& chain : slot.buckets) {
      longest = std::max(longest, chain.size());
    }
  }
  return longest;
}

}  // namespace asl::db
