// Indexed piecewise-constant step function over time.
//
// StepIndex is the query engine behind resv::AvailabilityProfile: a
// randomized balanced search tree (treap) over the step-function
// breakpoints, augmented per subtree with
//
//   * min/max value       — prunes whole subtrees during fit descents:
//                           a subtree with max < procs holds no feasible
//                           instant, one with min >= procs is feasible
//                           end to end;
//   * leftmost key        — gives every subtree its covered time range
//                           [min_key, bound) without extra traversal;
//   * a lazy add delta    — reservation add/release is a range update over
//                           [start, end), applied to O(log n) subtrees.
//
// earliest_fit / latest_fit run the same contiguous-run scan, and
// first_free the same segment walk, as the legacy linear implementation
// (resv::LinearProfile, kept as the differential-test oracle) but skip
// uniform stretches of calendar wholesale, so a query
// costs O(log n) amortized instead of a walk over every breakpoint between
// the query origin and the answer. All read-only queries thread the
// pending lazy deltas through an accumulator instead of pushing them, so
// they never mutate the tree and stay const.
//
// The arithmetic performed on segment boundaries is operation-for-operation
// identical to the linear scan (same max/min clamps, same one-ulp nudge in
// latest_fit), which is what makes byte-identical differential testing
// against LinearProfile possible.
//
// Nodes live in a per-index Arena (src/resv/arena.hpp): erases recycle
// slots through the arena's free list and whole-index teardown drops the
// chunks wholesale, so steady-state calendar churn never reaches the
// global allocator once the thread's chunk cache is warm (DESIGN.md §11).
//
// Scheduling passes do not copy the calendar they plan against: view()
// is an O(1) copy-on-write scratch copy that shares the base's nodes.
// Every node carries the tag of the one index allowed to write it in
// place; a view copies a foreign node into its own arena the first time a
// mutation reaches it, so n adds on a view copy O(n log R) nodes and never
// write the base (DESIGN.md §11, "Scratch calendars").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/resv/arena.hpp"

namespace resched::resv {

/// Answer of a first-free lookup for `procs` processors from time t.
struct FirstFree {
  /// First instant >= t at which at least `procs` processors are free;
  /// +inf when no segment from t on reaches `procs`.
  double at;
  /// Most processors free anywhere in [t, at), floored at 0 (so 0 when
  /// the range is empty or only oversubscribed). Always < procs: every
  /// count in (peak_before, procs] first finds its processors at `at`.
  int peak_before;
  bool operator==(const FirstFree&) const = default;
};

class StepIndex {
 public:
  /// One range_add(start, end, delta) of a bulk build; start < end.
  struct RangeAdd {
    double start;
    double end;
    int delta;
  };

  /// One segment [-inf, +inf) at `base_value`.
  explicit StepIndex(int base_value);

  /// StepIndex(base_value) followed by range_add() of each of `adds` in
  /// order, built in one sorted pass: O(R log R) for the sort and O(R)
  /// for the tree, with no split, merge or lazy tag. The result holds the
  /// same breakpoints, values, priorities and tree shape as the R
  /// incremental adds, and leaves the same priority state, so every later
  /// mutation reshapes it as it would the incremental build (DESIGN.md
  /// §4.1, "Building a calendar from a list").
  StepIndex(int base_value, std::span<const RangeAdd> adds);
  StepIndex(const StepIndex& other);
  StepIndex& operator=(const StepIndex& other);
  StepIndex(StepIndex&& other) noexcept;
  StepIndex& operator=(StepIndex&& other) noexcept;
  ~StepIndex();

  /// Copy-on-write scratch copy of this index, O(1): the view starts out
  /// sharing every node and copies a node only when one of its own
  /// mutations would write it, so this index is never written through it.
  /// Lifetime rule: this index must outlive the view and must not be
  /// mutated, assigned or moved from while the view lives. Moving the view
  /// keeps its sharing; copying it (or copy-assigning from it) makes an
  /// independent deep copy.
  StepIndex view() const;

  /// Number of breakpoints, including the -inf sentinel.
  std::size_t size() const { return size_; }

  /// Value of the segment containing t.
  int value_at(double t) const;

  /// Adds `delta` to every segment intersecting [start, end), materializing
  /// breakpoints at both ends first. O(log n).
  void range_add(double start, double end, int delta);

  /// Drops the breakpoint at t when its value equals its predecessor's
  /// (no-op when t is absent, the sentinel, or a genuine step). O(log n).
  void coalesce_at(double t);

  /// Erases breakpoints at or before `horizon` and pins the sentinel to the
  /// value that held at `horizon`; coalesces the first surviving breakpoint
  /// when it became redundant. O(log n) plus the freed nodes.
  void compact(double horizon);

  /// Earliest start >= not_before of a window of `duration` seconds whose
  /// every segment has value >= procs; nullopt when no such window exists
  /// (only possible when the final segment's value is < procs).
  std::optional<double> earliest_fit(int procs, double duration,
                                     double not_before) const;

  /// First instant >= t with value >= procs, and the largest value (floored
  /// at 0) over [t, that instant): one in-order descent that skips every
  /// subtree whose max aggregate is below procs, O(log n).
  FirstFree first_free(int procs, double t) const;

  /// Latest start with start >= not_before, start + duration <= deadline,
  /// and value >= procs throughout; nullopt when no such window exists.
  std::optional<double> latest_fit(int procs, double duration, double deadline,
                                   double not_before) const;

  /// In-order walk over the segments intersecting [from, to): fn(seg_start,
  /// seg_end, value) with seg_start the breakpoint (unclamped, -inf for the
  /// sentinel) and seg_end the next breakpoint (+inf for the last). Pass
  /// (-inf, +inf) to walk everything. The visitor is a template parameter,
  /// so the walk calls it inline rather than through a std::function.
  template <typename Fn>
  void for_each_segment(double from, double to, Fn&& fn) const;

  /// The tree as tests compare it: every node in key order with its key,
  /// value (pending deltas applied) and priority, and its depth.
  struct NodeLayout {
    double key;
    int value;
    std::uint64_t prio;
    int depth;
  };
  std::vector<NodeLayout> layout() const;
  /// State of the priority generator the next insertion draws from.
  std::uint64_t prio_state() const { return prio_state_; }

  /// Allocator telemetry: node creations / free-list reuses / chunk counts
  /// for this index's arena (see resv::arena_heap_allocs() for the
  /// process-wide heap-allocation counter the perf gates watch).
  struct PoolStats {
    std::uint64_t created = 0;
    std::uint64_t reused = 0;
    std::uint64_t chunks = 0;
    std::uint64_t heap_chunks = 0;
  };
  PoolStats pool_stats() const;

 private:
  // Fully defined here (not just declared) so the arena member below can
  // size its slots; still an implementation detail.
  struct Node {
    double key;
    double min_key;  // leftmost key in subtree (lazy-independent)
    std::uint64_t prio;
    std::uint64_t owner;  // tag of the only index that may write this node
    Node* l = nullptr;
    Node* r = nullptr;
    int value;    // segment value; stale by the sum of ancestors' pending
    int min_val;  // subtree aggregates, same staleness convention
    int max_val;
    int pending = 0;

    Node(double k, int v, std::uint64_t p, std::uint64_t tag)
        : key(k),
          min_key(k),
          prio(p),
          owner(tag),
          value(v),
          min_val(v),
          max_val(v) {}
  };

  // Ownership invariant: a node this index does not own (one shared with
  // the index it was viewed from) never points to a node it does own, so
  // every walk that frees or rewrites nodes stops at the first shared one.
  // Writers therefore take nodes through own(), which hands back a private
  // copy of a shared node; the caller relinks it in place of the original.
  Node* own(Node* n);

  /// view(): shares base's tree under a fresh tag, with an empty arena.
  struct SharedTree {};
  StepIndex(const StepIndex& base, SharedTree);

  void destroy(Node* n);
  Node* clone(const Node* n);
  static void apply(Node* n, int delta);
  void push(Node* n);
  static void pull(Node* n);
  Node* merge(Node* a, Node* b);
  void split(Node* t, double key, bool keep_equal_left, Node*& a, Node*& b);

  bool contains_key(double t) const;
  void insert(double key, int value);
  void erase(double key);
  /// Materializes a breakpoint at t (value copied from its segment).
  void ensure_key(double t);

  std::uint64_t next_prio();

  template <typename Fn>
  static void walk_segments(const Node* n, int acc, double bound, double from,
                            double to, Fn& fn);

  Arena<Node> pool_;
  Node* root_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t prio_state_;
  // Unique for the life of the process (a 64-bit counter, never reused):
  // a tag that recurred could let a view write a node of its base.
  std::uint64_t tag_;
};

template <typename Fn>
void StepIndex::walk_segments(const Node* n, int acc, double bound,
                              double from, double to, Fn& fn) {
  if (!n) return;
  if (bound <= from) return;     // all segments end at or before `from`
  if (n->min_key >= to) return;  // all segments start at or after `to`
  const int child_acc = acc + n->pending;
  walk_segments(n->l, child_acc, n->key, from, to, fn);
  const double self_end = n->r ? n->r->min_key : bound;
  if (self_end > from && n->key < to) fn(n->key, self_end, n->value + acc);
  walk_segments(n->r, child_acc, bound, from, to, fn);
}

template <typename Fn>
void StepIndex::for_each_segment(double from, double to, Fn&& fn) const {
  walk_segments(root_, 0, std::numeric_limits<double>::infinity(), from, to,
                fn);
}

}  // namespace resched::resv
