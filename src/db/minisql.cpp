#include "db/minisql.h"

#include "platform/spin.h"

namespace asl::db {

// ---------------------------------------------------------------- schema

bool MiniSql::create_table(const std::string& name) {
  LockGuard<AslMutex<McsLock>> meta(meta_lock_);
  return tables_.emplace(name, Table{}).second;
}

bool MiniSql::has_table(const std::string& name) const {
  LockGuard<AslMutex<McsLock>> meta(meta_lock_);
  return tables_.count(name) != 0;
}

MiniSql::Table* MiniSql::find_table(const std::string& name) {
  LockGuard<AslMutex<McsLock>> meta(meta_lock_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const MiniSql::Table* MiniSql::find_table(const std::string& name) const {
  LockGuard<AslMutex<McsLock>> meta(meta_lock_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------- state machine
// SHARED: any number of readers, unless EXCLUSIVE is held.
// RESERVED: at most one intending writer; readers may coexist.
// EXCLUSIVE: sole owner; waits out readers.

bool MiniSql::acquire_shared() {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  if (exclusive_held_) {
    ++busy_rejections_;
    return false;
  }
  ++shared_holders_;
  return true;
}

void MiniSql::release_shared() {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  --shared_holders_;
}

bool MiniSql::acquire_reserved() {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  if (reserved_held_ || exclusive_held_) {
    ++busy_rejections_;
    return false;  // SQLITE_BUSY: another writer is active
  }
  reserved_held_ = true;
  return true;
}

void MiniSql::release_reserved_to_shared() {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  reserved_held_ = false;
}

bool MiniSql::upgrade_exclusive() {
  // Spin until all other readers drain (SQLite's PENDING stage blocks new
  // readers; we approximate by repeatedly attempting the upgrade).
  for (;;) {
    {
      LockGuard<AslMutex<McsLock>> guard(state_lock_);
      if (!exclusive_held_ && shared_holders_ <= 1) {
        // The upgrading txn is itself one of the shared holders.
        exclusive_held_ = true;
        return true;
      }
    }
    sched_yield();
  }
}

void MiniSql::release_exclusive() {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  exclusive_held_ = false;
}

MiniSql::LockState MiniSql::global_state() const {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  if (exclusive_held_) return LockState::kExclusive;
  if (reserved_held_) return LockState::kReserved;
  if (shared_holders_ > 0) return LockState::kShared;
  return LockState::kUnlocked;
}

std::uint64_t MiniSql::commits() const {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  return commits_;
}

std::uint64_t MiniSql::busy_rejections() const {
  LockGuard<AslMutex<McsLock>> guard(state_lock_);
  return busy_rejections_;
}

// ----------------------------------------------------------- transactions

MiniSql::Txn MiniSql::begin() { return Txn(this); }

MiniSql::Txn::~Txn() {
  if (active_) rollback();
}

MiniSql::Txn::Txn(Txn&& other) noexcept
    : db_(other.db_),
      active_(other.active_),
      state_(other.state_),
      writes_(std::move(other.writes_)) {
  other.active_ = false;
  other.state_ = LockState::kUnlocked;
}

bool MiniSql::Txn::ensure_shared() {
  if (state_ != LockState::kUnlocked) return true;
  // DEFERRED: first read takes SHARED; retry through transient EXCLUSIVE
  // holders like sqlite3_busy_timeout would.
  while (!db_->acquire_shared()) {
    sched_yield();
  }
  state_ = LockState::kShared;
  return true;
}

bool MiniSql::Txn::ensure_reserved() {
  if (state_ == LockState::kReserved || state_ == LockState::kExclusive) {
    return true;
  }
  ensure_shared();
  if (!db_->acquire_reserved()) {
    return false;  // SQLITE_BUSY surfaced to the caller
  }
  state_ = LockState::kReserved;
  return true;
}

bool MiniSql::Txn::insert(const std::string& table, Row row) {
  if (!active_ || !ensure_reserved()) return false;
  if (db_->find_table(table) == nullptr) return false;
  writes_.push_back(PendingWrite{table, std::move(row)});
  return true;
}

std::optional<MiniSql::Row> MiniSql::Txn::select_point(
    const std::string& table, std::int64_t id) {
  if (!active_) return std::nullopt;
  ensure_shared();
  const Table* t = db_->find_table(table);
  if (t == nullptr) return std::nullopt;
  const auto [it, end] = t->id_index.equal_range(id);
  if (it == end) return std::nullopt;
  return t->rows[it->second];
}

std::vector<MiniSql::Row> MiniSql::Txn::select_range(const std::string& table,
                                                     std::int64_t lo,
                                                     std::int64_t hi,
                                                     std::int64_t min_score) {
  std::vector<Row> out;
  if (!active_) return out;
  ensure_shared();
  const Table* t = db_->find_table(table);
  if (t == nullptr) return out;
  for (auto it = t->id_index.lower_bound(lo);
       it != t->id_index.end() && it->first <= hi; ++it) {
    const Row& row = t->rows[it->second];
    if (row.score >= min_score) out.push_back(row);
  }
  return out;
}

std::vector<MiniSql::Row> MiniSql::Txn::full_scan(const std::string& table) {
  if (!active_) return {};
  ensure_shared();
  const Table* t = db_->find_table(table);
  return t == nullptr ? std::vector<Row>{} : t->rows;
}

bool MiniSql::Txn::commit() {
  if (!active_) return false;
  if (writes_.empty()) {
    rollback();  // read-only commit == release
    return true;
  }
  // Writer commit: RESERVED -> EXCLUSIVE, apply, release everything.
  db_->upgrade_exclusive();
  state_ = LockState::kExclusive;
  for (PendingWrite& w : writes_) {
    Table* t = db_->find_table(w.table);
    if (t == nullptr) continue;
    t->rows.push_back(std::move(w.row));
    t->id_index.emplace(t->rows.back().id, t->rows.size() - 1);
  }
  {
    LockGuard<AslMutex<McsLock>> guard(db_->state_lock_);
    ++db_->commits_;
  }
  db_->release_exclusive();
  db_->release_reserved_to_shared();
  db_->release_shared();
  writes_.clear();
  active_ = false;
  state_ = LockState::kUnlocked;
  return true;
}

void MiniSql::Txn::rollback() {
  if (!active_) return;
  if (state_ == LockState::kExclusive) db_->release_exclusive();
  if (state_ == LockState::kExclusive || state_ == LockState::kReserved) {
    db_->release_reserved_to_shared();
  }
  if (state_ != LockState::kUnlocked) db_->release_shared();
  writes_.clear();
  active_ = false;
  state_ = LockState::kUnlocked;
}

// ----------------------------------------------------------- autocommit

bool MiniSql::insert(const std::string& table, Row row) {
  Txn txn = begin();
  if (!txn.insert(table, std::move(row))) return false;
  return txn.commit();
}

std::optional<MiniSql::Row> MiniSql::select_point(const std::string& table,
                                                  std::int64_t id) {
  Txn txn = begin();
  auto row = txn.select_point(table, id);
  txn.commit();
  return row;
}

std::vector<MiniSql::Row> MiniSql::select_range(const std::string& table,
                                                std::int64_t lo,
                                                std::int64_t hi,
                                                std::int64_t min_score) {
  Txn txn = begin();
  auto rows = txn.select_range(table, lo, hi, min_score);
  txn.commit();
  return rows;
}

std::vector<MiniSql::Row> MiniSql::full_scan(const std::string& table) {
  Txn txn = begin();
  auto rows = txn.full_scan(table);
  txn.commit();
  return rows;
}

std::size_t MiniSql::table_rows(const std::string& table) const {
  const Table* t = find_table(table);
  return t == nullptr ? 0 : t->rows.size();
}

}  // namespace asl::db
