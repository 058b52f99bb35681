#include "src/resv/step_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/util/error.hpp"

namespace resched::resv {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kPrioSeed = 0x5eedc0ffee15900dULL;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A fresh ownership tag. 64 bits never wrap in practice (584 years at
/// 10^9 tags a second), and tag 0 is never issued.
std::uint64_t fresh_tag() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

StepIndex::StepIndex(int base_value)
    : prio_state_(kPrioSeed), tag_(fresh_tag()) {
  root_ = pool_.create(kNegInf, base_value, next_prio(), tag_);
  size_ = 1;
}

StepIndex::StepIndex(int base_value, std::span<const RangeAdd> adds)
    : prio_state_(kPrioSeed), tag_(fresh_tag()) {
  // Every endpoint with its position in the incremental order (add i's
  // start is 2i, its end 2i + 1) and its delta, sorted by key and, among
  // equal keys, by position, so each key's group opens with the endpoint
  // that would have inserted it — and whose bits (0.0 or -0.0) it keeps.
  struct Endpoint {
    double key;
    std::uint32_t pos;
    int delta;
  };
  std::vector<Endpoint> ends;
  ends.reserve(2 * adds.size());
  for (std::size_t i = 0; i < adds.size(); ++i) {
    const RangeAdd& a = adds[i];
    RESCHED_ASSERT(a.start < a.end, "bulk range_add needs start < end");
    const auto pos = static_cast<std::uint32_t>(2 * i);
    ends.push_back({a.start, pos, a.delta});
    ends.push_back({a.end, pos + 1, -a.delta});
  }
  const auto by_key_then_pos = [](const Endpoint& a, const Endpoint& b) {
    return a.key < b.key || (a.key == b.key && a.pos < b.pos);
  };
  std::sort(ends.begin(), ends.end(), by_key_then_pos);

  // Breakpoint values are prefix sums of the deltas in key order. Keys at
  // -inf fold into the sentinel, which ensure_key() finds already there.
  struct Step {
    double key;
    int value;
    std::uint32_t pos;  // of the endpoint that first inserts the key
  };
  std::vector<Step> steps;
  steps.reserve(ends.size() + 1);
  int value = base_value;
  std::size_t e = 0;
  for (; e < ends.size() && ends[e].key == kNegInf; ++e) value += ends[e].delta;
  steps.push_back({kNegInf, value, 0});
  while (e < ends.size()) {
    const Endpoint& first = ends[e];
    for (; e < ends.size() && ends[e].key == first.key; ++e)
      value += ends[e].delta;
    steps.push_back({first.key, value, first.pos});
  }

  // Priorities in the order the adds would first insert each key, after
  // the sentinel's own draw.
  std::vector<std::uint64_t> prio(steps.size());
  prio[0] = next_prio();
  std::vector<std::uint32_t> step_at(ends.size(), 0);  // 0: no insertion
  for (std::size_t k = 1; k < steps.size(); ++k)
    step_at[steps[k].pos] = static_cast<std::uint32_t>(k);
  for (const std::uint32_t k : step_at)
    if (k != 0) prio[k] = next_prio();

  // The treap of distinct priorities is the Cartesian tree of the keys:
  // build it left to right on a stack holding the right spine, pulling
  // each node's aggregates once its subtree is complete (when it leaves
  // the spine). Ties keep the earlier key on top, as merge() does.
  std::vector<Node*> spine;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    Node* n = pool_.create(steps[k].key, steps[k].value, prio[k], tag_);
    Node* below = nullptr;
    while (!spine.empty() && spine.back()->prio < n->prio) {
      below = spine.back();
      spine.pop_back();
      pull(below);
    }
    n->l = below;
    if (!spine.empty()) spine.back()->r = n;
    spine.push_back(n);
  }
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) pull(*it);
  root_ = spine.front();
  size_ = steps.size();
}

StepIndex::StepIndex(const StepIndex& other)
    : size_(other.size_), prio_state_(other.prio_state_), tag_(fresh_tag()) {
  root_ = clone(other.root_);
}

StepIndex& StepIndex::operator=(const StepIndex& other) {
  if (this == &other) return *this;
  // Nodes are trivially destructible: dropping the arena wholesale frees
  // every node without walking the tree, and the fresh arena reuses the
  // thread's cached chunks. The new tree gets a new tag, so nothing that
  // shared the old one can be written through this index.
  pool_ = Arena<Node>();
  tag_ = fresh_tag();
  root_ = clone(other.root_);
  size_ = other.size_;
  prio_state_ = other.prio_state_;
  return *this;
}

StepIndex::StepIndex(StepIndex&& other) noexcept
    : pool_(std::move(other.pool_)),
      root_(std::exchange(other.root_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      prio_state_(other.prio_state_),
      tag_(other.tag_) {}

StepIndex& StepIndex::operator=(StepIndex&& other) noexcept {
  if (this == &other) return *this;
  pool_ = std::move(other.pool_);  // drops our chunks (and with them, nodes)
  root_ = std::exchange(other.root_, nullptr);
  size_ = std::exchange(other.size_, 0);
  prio_state_ = other.prio_state_;
  tag_ = other.tag_;
  return *this;
}

StepIndex::StepIndex(const StepIndex& base, SharedTree)
    : root_(base.root_),
      size_(base.size_),
      prio_state_(base.prio_state_),
      tag_(fresh_tag()) {}

StepIndex StepIndex::view() const { return StepIndex(*this, SharedTree{}); }

StepIndex::~StepIndex() = default;  // arena teardown frees every node

StepIndex::PoolStats StepIndex::pool_stats() const {
  const auto& s = pool_.stats();
  return PoolStats{s.created, s.reused, s.chunks, s.heap_chunks};
}

std::uint64_t StepIndex::next_prio() { return splitmix(prio_state_); }

void StepIndex::destroy(Node* n) {
  // A shared node heads a subtree of shared nodes (ownership invariant):
  // they belong to the base, so the walk stops there.
  if (!n || n->owner != tag_) return;
  destroy(n->l);
  destroy(n->r);
  pool_.destroy(n);
}

StepIndex::Node* StepIndex::clone(const Node* n) {
  if (!n) return nullptr;
  Node* c = pool_.create(*n);
  c->owner = tag_;
  c->l = clone(n->l);
  c->r = clone(n->r);
  return c;
}

StepIndex::Node* StepIndex::own(Node* n) {
  if (!n || n->owner == tag_) return n;
  Node* c = pool_.create(*n);  // children stay shared
  c->owner = tag_;
  return c;
}

// n must be owned: apply writes it in place.
void StepIndex::apply(Node* n, int delta) {
  if (!n || delta == 0) return;
  n->value += delta;
  n->min_val += delta;
  n->max_val += delta;
  n->pending += delta;
}

void StepIndex::push(Node* n) {
  if (n->pending != 0) {
    n->l = own(n->l);
    n->r = own(n->r);
    apply(n->l, n->pending);
    apply(n->r, n->pending);
    n->pending = 0;
  }
}

void StepIndex::pull(Node* n) {
  // Valid only when n->pending == 0 (children fields otherwise stale).
  n->min_val = n->value;
  n->max_val = n->value;
  n->min_key = n->key;
  if (n->l) {
    n->min_val = std::min(n->min_val, n->l->min_val);
    n->max_val = std::max(n->max_val, n->l->max_val);
    n->min_key = n->l->min_key;
  }
  if (n->r) {
    n->min_val = std::min(n->min_val, n->r->min_val);
    n->max_val = std::max(n->max_val, n->r->max_val);
  }
}

StepIndex::Node* StepIndex::merge(Node* a, Node* b) {
  if (!a) return b;
  if (!b) return a;
  if (a->prio >= b->prio) {
    a = own(a);
    push(a);
    a->r = merge(a->r, b);
    pull(a);
    return a;
  }
  b = own(b);
  push(b);
  b->l = merge(a, b->l);
  pull(b);
  return b;
}

void StepIndex::split(Node* t, double key, bool keep_equal_left, Node*& a,
                      Node*& b) {
  if (!t) {
    a = b = nullptr;
    return;
  }
  t = own(t);
  push(t);
  bool to_left = keep_equal_left ? (t->key <= key) : (t->key < key);
  if (to_left) {
    split(t->r, key, keep_equal_left, t->r, b);
    a = t;
    pull(a);
  } else {
    split(t->l, key, keep_equal_left, a, t->l);
    b = t;
    pull(b);
  }
}

std::vector<StepIndex::NodeLayout> StepIndex::layout() const {
  std::vector<NodeLayout> out;
  out.reserve(size_);
  auto walk = [&out](auto&& self, const Node* n, int acc, int depth) -> void {
    if (!n) return;
    self(self, n->l, acc + n->pending, depth + 1);
    out.push_back({n->key, n->value + acc, n->prio, depth});
    self(self, n->r, acc + n->pending, depth + 1);
  };
  walk(walk, root_, 0, 0);
  return out;
}

int StepIndex::value_at(double t) const {
  const Node* n = root_;
  int acc = 0;
  int best = 0;
  bool found = false;
  while (n) {
    if (n->key <= t) {
      best = n->value + acc;
      found = true;
      acc += n->pending;
      n = n->r;
    } else {
      acc += n->pending;
      n = n->l;
    }
  }
  RESCHED_ASSERT(found, "step index lost its -inf sentinel");
  return best;
}

bool StepIndex::contains_key(double t) const {
  const Node* n = root_;
  while (n) {
    if (n->key == t) return true;
    n = t < n->key ? n->l : n->r;
  }
  return false;
}

void StepIndex::insert(double key, int value) {
  OBS_COUNT("resv.index.treap_rebalances", 1);
  Node *a, *b;
  split(root_, key, /*keep_equal_left=*/false, a, b);
  root_ = merge(merge(a, pool_.create(key, value, next_prio(), tag_)), b);
  ++size_;
}

void StepIndex::erase(double key) {
  OBS_COUNT("resv.index.treap_rebalances", 1);
  Node *a, *rest, *mid, *b;
  split(root_, key, /*keep_equal_left=*/false, a, rest);
  split(rest, key, /*keep_equal_left=*/true, mid, b);
  RESCHED_ASSERT(mid && !mid->l && !mid->r, "erase of an absent breakpoint");
  destroy(mid);  // owned: split copies every node it cuts through
  --size_;
  root_ = merge(a, b);
}

void StepIndex::ensure_key(double t) {
  if (contains_key(t)) return;
  insert(t, value_at(t));
}

void StepIndex::range_add(double start, double end, int delta) {
  ensure_key(start);
  ensure_key(end);
  Node *a, *rest, *mid, *b;
  split(root_, start, /*keep_equal_left=*/false, a, rest);
  split(rest, end, /*keep_equal_left=*/false, mid, b);
  apply(mid, delta);
  root_ = merge(a, merge(mid, b));
}

void StepIndex::coalesce_at(double t) {
  if (t == kNegInf || !contains_key(t)) return;
  // Predecessor value: the segment just before t.
  const Node* n = root_;
  int acc = 0;
  bool have_pred = false;
  int pred = 0;
  int at = 0;
  while (n) {
    if (n->key < t) {
      pred = n->value + acc;
      have_pred = true;
      acc += n->pending;
      n = n->r;
    } else {
      if (n->key == t) at = n->value + acc;
      acc += n->pending;
      n = n->l;
    }
  }
  RESCHED_ASSERT(have_pred, "finite breakpoint without a predecessor");
  if (pred == at) erase(t);
}

void StepIndex::compact(double horizon) {
  int value_at_horizon = value_at(horizon);
  Node *dropped, *kept;
  split(root_, horizon, /*keep_equal_left=*/true, dropped, kept);
  std::size_t dropped_count = 0;
  auto count = [&dropped_count](auto&& self, const Node* n) -> void {
    if (!n) return;
    ++dropped_count;
    self(self, n->l);
    self(self, n->r);
  };
  count(count, dropped);
  destroy(dropped);  // recycles the owned slots into the arena's free list
  size_ -= dropped_count;

  Node* sentinel = pool_.create(kNegInf, value_at_horizon, next_prio(), tag_);
  ++size_;
  // The first surviving breakpoint may now repeat the sentinel's value.
  if (kept && kept->min_key != kNegInf) {
    double first = kept->min_key;
    root_ = merge(sentinel, kept);
    coalesce_at(first);
    return;
  }
  root_ = merge(sentinel, kept);
}

std::optional<double> StepIndex::earliest_fit(int procs, double duration,
                                              double not_before) const {
  struct Scan {
    int procs;
    double duration, not_before;
    std::optional<double> run_start;
    bool done = false;
    std::optional<double> answer;
    // Tallied locally (plain ints) and flushed once per query, so the hot
    // recursion never touches shared metric state.
    std::uint64_t prunes = 0;
    std::uint64_t feasible_runs = 0;
  } s{procs, duration, not_before, std::nullopt, false, std::nullopt, 0, 0};

  // bound = end of the subtree's last segment (the key of the next
  // breakpoint after the subtree, +inf at the far right); acc = sum of
  // un-pushed ancestor pendings.
  auto scan = [&s](auto&& self, const Node* n, int acc, double bound) -> void {
    if (!n || s.done) return;
    if (bound <= s.not_before) return;  // every segment ends before the query
    int tree_min = n->min_val + acc;
    int tree_max = n->max_val + acc;
    if (tree_min >= s.procs) {  // feasible end to end: one run to `bound`
      ++s.feasible_runs;
      double seg_start = std::max(n->min_key, s.not_before);
      if (!s.run_start) s.run_start = seg_start;
      if (*s.run_start + s.duration <= bound) {
        s.done = true;
        s.answer = s.run_start;
      }
      return;
    }
    if (tree_max < s.procs) {  // no feasible instant anywhere inside
      ++s.prunes;
      s.run_start.reset();
      return;
    }
    int child_acc = acc + n->pending;
    self(self, n->l, child_acc, n->key);
    if (s.done) return;
    double self_end = n->r ? n->r->min_key : bound;
    if (self_end > s.not_before) {
      double seg_start = std::max(n->key, s.not_before);
      if (n->value + acc >= s.procs) {
        if (!s.run_start) s.run_start = seg_start;
        if (*s.run_start + s.duration <= self_end) {
          s.done = true;
          s.answer = s.run_start;
          return;
        }
      } else {
        s.run_start.reset();
      }
    }
    self(self, n->r, child_acc, bound);
  };
  scan(scan, root_, 0, kPosInf);
  OBS_COUNT("resv.index.subtree_prunes", s.prunes);
  OBS_COUNT("resv.index.subtree_runs", s.feasible_runs);
  return s.done ? s.answer : std::nullopt;
}

FirstFree StepIndex::first_free(int procs, double t) const {
  struct Scan {
    int procs;
    double t;
    bool done = false;
    FirstFree answer;
    std::uint64_t prunes = 0;
  } s{procs, t, false, {kPosInf, 0}, 0};

  // Same in-order walk as earliest_fit, stopping at the first segment that
  // reaches procs instead of at the first long-enough run. A subtree below
  // procs throughout is skipped on its max aggregate, which is exact for
  // peak_before only once every segment in it ends after t (min_key >= t);
  // the O(log n) subtrees straddling t are descended instead.
  auto scan = [&s](auto&& self, const Node* n, int acc, double bound) -> void {
    if (!n || s.done) return;
    if (bound <= s.t) return;  // every segment ends at or before t
    const int tree_max = n->max_val + acc;
    if (n->min_val + acc >= s.procs) {
      s.done = true;
      s.answer.at = std::max(n->min_key, s.t);
      return;
    }
    if (tree_max < s.procs && n->min_key >= s.t) {
      ++s.prunes;
      s.answer.peak_before = std::max(s.answer.peak_before, tree_max);
      return;
    }
    const int child_acc = acc + n->pending;
    self(self, n->l, child_acc, n->key);
    if (s.done) return;
    const double self_end = n->r ? n->r->min_key : bound;
    if (self_end > s.t) {
      const int value = n->value + acc;
      if (value >= s.procs) {
        s.done = true;
        s.answer.at = std::max(n->key, s.t);
        return;
      }
      s.answer.peak_before = std::max(s.answer.peak_before, value);
    }
    self(self, n->r, child_acc, bound);
  };
  scan(scan, root_, 0, kPosInf);
  OBS_COUNT("resv.index.subtree_prunes", s.prunes);
  return s.answer;
}

std::optional<double> StepIndex::latest_fit(int procs, double duration,
                                            double deadline,
                                            double not_before) const {
  struct Scan {
    int procs;
    double duration, deadline, not_before;
    std::optional<double> run_end;
    bool done = false;
    std::optional<double> answer;
    std::uint64_t prunes = 0;
    std::uint64_t feasible_runs = 0;
  } s{procs, duration,     deadline, not_before, std::nullopt,
      false, std::nullopt, 0,        0};

  // Mirrors the linear backward scan, including its one-ulp nudge so the
  // returned window never overhangs a reservation starting at run_end.
  auto nudged_start = [&s]() {
    double start = *s.run_end - s.duration;
    while (start + s.duration > *s.run_end)
      start = std::nextafter(start, -std::numeric_limits<double>::infinity());
    return start;
  };
  // Processes a feasible span whose left edge is `left` and whose run end
  // (shared with any feasible segments already seen to the right) is
  // s.run_end; sets done when the scan can conclude.
  auto feasible_span = [&s, &nudged_start](double left, double span_end) {
    if (!s.run_end) s.run_end = span_end;
    double start = nudged_start();
    if (start >= left) {
      s.done = true;
      s.answer = start >= s.not_before ? std::optional<double>(start)
                                       : std::nullopt;
      return;
    }
    if (*s.run_end - s.duration < s.not_before) {
      s.done = true;  // run ends can only move earlier from here on
      s.answer = std::nullopt;
    }
  };

  auto scan = [&](auto&& self, const Node* n, int acc, double bound) -> void {
    if (!n || s.done) return;
    if (n->min_key >= s.deadline) return;  // clamped empty by the deadline
    int tree_min = n->min_val + acc;
    int tree_max = n->max_val + acc;
    if (tree_min >= s.procs) {
      ++s.feasible_runs;
      feasible_span(n->min_key, std::min(bound, s.deadline));
      return;
    }
    if (tree_max < s.procs) {  // at least one non-empty infeasible segment
      ++s.prunes;
      s.run_end.reset();
      return;
    }
    int child_acc = acc + n->pending;
    self(self, n->r, child_acc, bound);
    if (s.done) return;
    double self_end =
        std::min(n->r ? n->r->min_key : bound, s.deadline);
    if (n->key < self_end) {  // non-empty after the deadline clamp
      if (n->value + acc >= s.procs) {
        feasible_span(n->key, self_end);
        if (s.done) return;
      } else {
        s.run_end.reset();
      }
    }
    self(self, n->l, child_acc, n->key);
  };
  scan(scan, root_, 0, kPosInf);
  OBS_COUNT("resv.index.subtree_prunes", s.prunes);
  OBS_COUNT("resv.index.subtree_runs", s.feasible_runs);
  return s.done ? s.answer : std::nullopt;
}

}  // namespace resched::resv
