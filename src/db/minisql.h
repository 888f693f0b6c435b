// MiniSql — a small relational engine, the SQLite stand-in.
//
// Lock pattern (Table 1): SQLite serializes writers through a *state-machine
// lock*: a connection's file lock progresses UNLOCKED -> SHARED -> RESERVED
// -> EXCLUSIVE, and "the transaction can commit successfully only in a
// certain state". MiniSql reproduces that: a global lock state guarded by
// the state-machine mutex (an AslMutex), DEFERRED transactions that take
// SHARED on first read and RESERVED on first write, and commit that upgrades
// to EXCLUSIVE. A separate metadata lock guards the catalog.
//
// The engine supports the paper's SQLite benchmark mix: INSERT, simple point
// SELECT on an indexed column, complex range SELECT with a filter on a
// non-indexed column, and a full-table scan.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "asl/libasl.h"

namespace asl::db {

class MiniSql {
 public:
  // SQLite's file-lock ladder (PENDING folded into EXCLUSIVE acquisition).
  enum class LockState : std::uint8_t {
    kUnlocked,
    kShared,
    kReserved,
    kExclusive,
  };

  struct Row {
    std::int64_t id = 0;       // indexed column
    std::int64_t score = 0;    // non-indexed column (complex-select filter)
    std::string payload;
  };

  MiniSql() = default;

  // --- schema -------------------------------------------------------------
  // Creates a table; returns false if it already exists.
  bool create_table(const std::string& name);
  bool has_table(const std::string& name) const;

  // --- transactions (DEFERRED semantics) -----------------------------------
  class Txn {
   public:
    ~Txn();
    Txn(Txn&&) noexcept;
    Txn& operator=(Txn&&) = delete;
    Txn(const Txn&) = delete;

    // INSERT INTO table VALUES (row). First write upgrades to RESERVED.
    bool insert(const std::string& table, Row row);

    // SELECT * WHERE id = ? (point query via the id index).
    std::optional<Row> select_point(const std::string& table,
                                    std::int64_t id);

    // SELECT * WHERE id BETWEEN lo AND hi AND score >= min_score
    // (range over the index, filter on the non-indexed column).
    std::vector<Row> select_range(const std::string& table, std::int64_t lo,
                                  std::int64_t hi, std::int64_t min_score);

    // SELECT * (full-table scan; the paper's occasional extremely long op).
    std::vector<Row> full_scan(const std::string& table);

    // COMMIT: upgrades to EXCLUSIVE, applies buffered writes, releases.
    // Returns false (and rolls back) if the upgrade is impossible.
    bool commit();
    void rollback();

    bool active() const { return active_; }
    LockState state() const { return state_; }

   private:
    friend class MiniSql;
    explicit Txn(MiniSql* db) : db_(db) {}

    bool ensure_shared();
    bool ensure_reserved();

    MiniSql* db_ = nullptr;
    bool active_ = true;
    LockState state_ = LockState::kUnlocked;
    struct PendingWrite {
      std::string table;
      Row row;
    };
    std::vector<PendingWrite> writes_;
  };

  // Begins a DEFERRED transaction: no lock is taken until first use.
  Txn begin();

  // Autocommit helpers (each wraps one op in a transaction).
  bool insert(const std::string& table, Row row);
  std::optional<Row> select_point(const std::string& table, std::int64_t id);
  std::vector<Row> select_range(const std::string& table, std::int64_t lo,
                                std::int64_t hi, std::int64_t min_score);
  std::vector<Row> full_scan(const std::string& table);

  std::size_t table_rows(const std::string& table) const;

  // Introspection for tests.
  LockState global_state() const;
  std::uint64_t commits() const;
  std::uint64_t busy_rejections() const;

 private:
  struct Table {
    std::vector<Row> rows;
    std::multimap<std::int64_t, std::size_t> id_index;  // id -> row position
  };

  // State-machine transitions; all return success and are guarded by
  // state_lock_.
  bool acquire_shared();
  void release_shared();
  bool acquire_reserved();
  void release_reserved_to_shared();
  bool upgrade_exclusive();
  void release_exclusive();

  Table* find_table(const std::string& name);
  const Table* find_table(const std::string& name) const;

  mutable AslMutex<McsLock> state_lock_;  // guards the lock-state counters
  mutable AslMutex<McsLock> meta_lock_;   // guards the catalog
  std::map<std::string, Table> tables_;   // guarded by meta_lock_ for DDL;
                                          // row access governed by the
                                          // state machine
  // State-machine occupancy (guarded by state_lock_):
  std::uint32_t shared_holders_ = 0;
  bool reserved_held_ = false;
  bool exclusive_held_ = false;
  std::uint64_t commits_ = 0;
  std::uint64_t busy_rejections_ = 0;
};

}  // namespace asl::db
