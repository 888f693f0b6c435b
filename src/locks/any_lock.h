// Type-erased Lockable, for choosing a lock implementation by name at
// runtime. Its one user is property_test's mutual-exclusion sweep, which
// runs the same counter check over every lock kind through it; the
// interposition shim and the harness name their lock types statically.
#pragma once

#include <memory>
#include <utility>

#include "locks/lock_concepts.h"

namespace asl {

class AnyLock {
 public:
  template <Lockable L, typename... Args>
  static AnyLock make(Args&&... args) {
    AnyLock any;
    any.impl_ = std::make_unique<Model<L>>(std::forward<Args>(args)...);
    return any;
  }

  AnyLock() = default;
  AnyLock(AnyLock&&) noexcept = default;
  AnyLock& operator=(AnyLock&&) noexcept = default;

  void lock() { impl_->lock(); }
  void unlock() { impl_->unlock(); }
  bool try_lock() { return impl_->try_lock(); }
  bool is_free() const { return impl_->is_free(); }
  bool valid() const { return impl_ != nullptr; }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void lock() = 0;
    virtual void unlock() = 0;
    virtual bool try_lock() = 0;
    virtual bool is_free() const = 0;
  };

  template <Lockable L>
  struct Model final : Concept {
    template <typename... Args>
    explicit Model(Args&&... args) : lock_(std::forward<Args>(args)...) {}
    void lock() override { lock_.lock(); }
    void unlock() override { lock_.unlock(); }
    bool try_lock() override { return lock_.try_lock(); }
    bool is_free() const override { return lock_.is_free(); }
    L lock_;
  };

  std::unique_ptr<Concept> impl_;
};

static_assert(Lockable<AnyLock>);

}  // namespace asl
