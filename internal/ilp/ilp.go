// Package ilp provides the integer-linear-programming solver behind the PES
// optimizer and the Oracle (Eqn. 2–5 of the paper).
//
// The scheduling problem has a chain structure: events execute back to back
// on the main thread, each event must be assigned exactly one ACMP
// configuration (Eqn. 2), the cumulative finish time of every prefix must
// meet that event's deadline (Eqn. 4), and the objective is the total energy
// (Eqn. 5). Like the paper, which implements its own solver rather than
// using a third-party LP package, this solver is specialized to that
// structure.
//
// Solver is the one live solver: an exact branch-and-bound over per-event
// configuration choices, run on scratch buffers reused across calls, with
// three structural optimizations over the straightforward search (preserved
// verbatim as SolveReference):
//
//   - Dominance pruning over ACMP configurations: a choice that is no
//     faster and no cheaper than an earlier-ordered choice can never appear
//     in the solver's answer, so each item's candidate set shrinks to its
//     energy/latency Pareto frontier before the search starts.
//   - Memoized suffix latencies: the latest admissible finish time of every
//     item is precomputed from the suffix of minimum latencies, turning the
//     per-node "can the remaining deadlines still be met?" scan into an O(1)
//     comparison.
//   - Frontier bisection: each pruned frontier is ordered by ascending
//     energy and therefore strictly descending latency, so the infeasible
//     low-energy prefix at a node is skipped with a binary search instead of
//     being enumerated.
//
// Hard windows additionally escalate to an admissible arrival-time-grid
// bound (see Solver).
//
// Two frozen traversals sit beside it. SolveReference is the equivalence
// reference for the tests and for the node ratio cmd/pes-bench reports.
// Solver.SolveReferenceOrder replays SolveReference's candidate order, node
// accounting and budget aborts bit for bit with O(1) feasibility tests;
// Oracle v1 runs it so that the paper-exact figures stay pinned.
//
// Tie-breaking: Solver orders each item's candidates by ascending energy and
// equal energies by choice index, while both reference traversals order
// them with sort.Slice, which leaves equal energies in an unspecified order.
// Solver's pruning only removes work that cannot change the answer, so it
// returns exactly SolveReference's assignment whenever no item has two
// exactly equal energies, its pure first attempt completes (under 10,000
// nodes), and the reference does not exhaust its budget (property-tested in
// equivalence_test.go). Otherwise a completed Solver search still returns
// the exact minimum energy, but possibly another optimum of that energy.
package ilp

import "repro/internal/simtime"

// Choice is one candidate configuration for an item: its predicted latency
// and energy under that configuration.
type Choice struct {
	Latency simtime.Duration
	Energy  float64
}

// Item is one event to schedule: its absolute deadline and its per-config
// choices. Choices must be non-empty.
type Item struct {
	Deadline simtime.Time
	Choices  []Choice
}

// Problem is a chain-scheduling instance: items execute in order starting no
// earlier than Start.
type Problem struct {
	Start simtime.Time
	Items []Item
}

// Assignment is the solver output.
type Assignment struct {
	// Choice holds the selected choice index for each item.
	Choice []int
	// TotalEnergy is the summed energy of the selected choices.
	TotalEnergy float64
	// Feasible reports whether every original deadline is met. When the
	// instance is infeasible (e.g. a Type I event), the solver returns the
	// assignment that meets the relaxed deadlines (earliest achievable
	// finish times) with minimal energy, and Feasible is false.
	Feasible bool
	// Finish holds the cumulative finish time of each item under the
	// returned assignment.
	Finish []simtime.Time
	// Nodes is the number of branch-and-bound candidates explored (for
	// overhead reporting and regression benchmarks). Every solver counts
	// the same way — one node per candidate choice tried at a search
	// position — so their Nodes values are directly comparable; Solver's
	// dominance pruning and memoized suffix latencies make its count
	// strictly smaller than SolveReference's on non-trivial instances.
	Nodes int
}

// Aborted reports whether the search exhausted its node budget before
// completing, in which case the assignment is the best incumbent found
// along the traversal (a traversal artifact) rather than a proven optimum.
func (a Assignment) Aborted() bool { return a.Nodes >= maxNodes }

// maxNodes bounds the branch-and-bound search; beyond it the best incumbent
// stands. With ≤ ~16 items and 17 configurations the bound is generous.
const maxNodes = 400000
