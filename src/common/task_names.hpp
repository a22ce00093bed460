// Task-name universes shared by reference.
//
// Every served session carries its task universe in three places — the
// session, its sanitizer, and its durable metadata — and a daemon serves
// many sessions over a handful of distinct universes.  TaskNames is an
// immutable list behind a shared pointer, so those copies are pointer
// copies; NameInterner hands out one list per distinct universe (the
// SessionManager owns one).  Both convert from and to
// std::vector<std::string>, so code that builds or reads plain vectors is
// unchanged.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace bbmg {

class TaskNames {
 public:
  using List = std::vector<std::string>;

  TaskNames() : list_(empty_list()) {}
  TaskNames(List names)
      : list_(std::make_shared<const List>(std::move(names))) {}
  TaskNames(std::initializer_list<std::string> names)
      : TaskNames(List(names)) {}

  operator const List&() const { return *list_; }
  [[nodiscard]] const List& list() const { return *list_; }

  [[nodiscard]] std::size_t size() const { return list_->size(); }
  [[nodiscard]] bool empty() const { return list_->empty(); }

  friend bool operator==(const TaskNames& a, const TaskNames& b) {
    return a.list_ == b.list_ || *a.list_ == *b.list_;
  }
  friend bool operator==(const TaskNames& a, const List& b) {
    return *a.list_ == b;
  }

 private:
  friend class NameInterner;
  static const std::shared_ptr<const List>& empty_list() {
    static const auto empty = std::make_shared<const List>();
    return empty;
  }

  std::shared_ptr<const List> list_;
};

/// One shared TaskNames per distinct universe.  Thread-safe.  A universe
/// is forgotten once no TaskNames outside the interner refers to it.
class NameInterner {
 public:
  /// The interned list equal to `names`; `names` itself becomes the
  /// interned list when its universe is new.
  [[nodiscard]] TaskNames intern(TaskNames names) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = lists_.find(*names.list_);
    if (it != lists_.end()) {
      names.list_ = *it;
      return names;
    }
    if (lists_.size() >= sweep_at_) sweep_locked();
    lists_.insert(names.list_);
    return names;
  }

 private:
  using Ptr = std::shared_ptr<const TaskNames::List>;
  struct ByContent {
    using is_transparent = void;
    bool operator()(const Ptr& a, const Ptr& b) const { return *a < *b; }
    bool operator()(const Ptr& a, const TaskNames::List& b) const {
      return *a < b;
    }
    bool operator()(const TaskNames::List& a, const Ptr& b) const {
      return a < *b;
    }
  };

  /// Drop universes only the interner still holds.  Amortized: runs when
  /// the set doubles since the last sweep.
  void sweep_locked() {
    for (auto it = lists_.begin(); it != lists_.end();) {
      it = it->use_count() == 1 ? lists_.erase(it) : std::next(it);
    }
    sweep_at_ = std::max<std::size_t>(16, 2 * lists_.size());
  }

  mutable std::mutex mu_;
  std::set<Ptr, ByContent> lists_;
  std::size_t sweep_at_{16};
};

}  // namespace bbmg
