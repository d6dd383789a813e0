// Package shard distributes a measurement campaign across processes
// without giving up the single-process determinism contract.
//
// The paper's methodology wants campaigns dense and long (§3, §5);
// one process caps how dense. shard splits a campaign's cell matrix
// into per-worker assignments, has each worker execute its slice with
// the ordinary fleet + store machinery into a shard-stamped store,
// and recombines the shards with store.MergeShards into a run that is
// byte-identical to a single-process fleet.Run — the workers=1-vs-8
// property extended to shards=1-vs-N.
//
// Three design rules make that identity hold:
//
//  1. Assignment is a pure function of (SpecKey, shard count): which
//     worker owns a cell depends only on the campaign's content
//     address and the fleet size, never on worker liveness, load or
//     arrival order. Reassignment after a worker failure re-executes
//     the same labels, and labels key the random substreams, so the
//     retry reproduces the dead worker's bytes exactly.
//  2. Workers never make scheduling decisions. One planner drives
//     every campaign: fleet.AdaptivePlanner computes the batch
//     structure at the coordinator (a fixed campaign is one batch of
//     the whole matrix); workers only execute explicit cell lists
//     (fleet.RunCells), and the batch barrier synchronizes at the
//     coordinator so stopping decisions stay repetition-ordered.
//  3. The merge refuses ambiguity. Shard stores carry the campaign's
//     full identity; store.MergeShards cross-checks every byte of it
//     and accepts duplicate cells only when they are byte-identical
//     (the reassignment overlap).
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Owner returns the shard index that owns a cell label in a campaign
// with the given spec key and shard count — a pure function of its
// arguments, so every participant (coordinator, workers, a future
// re-run) computes identical assignments without coordination.
func Owner(specKey, label string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(specKey))
	h.Write([]byte{':'})
	h.Write([]byte(label))
	return int(h.Sum64() % uint64(shards))
}

// AssignmentSet is the full partition of a campaign's cells across
// shards: Cells[i] holds shard i's labels in campaign enumeration
// order. It serialises for transport (a worker can be handed its
// assignment over the wire) and validates on decode.
type AssignmentSet struct {
	// SpecKey is the campaign's content address — the hash the
	// partition is derived from.
	SpecKey string `json:"spec_key"`
	// Shards is the partition width.
	Shards int `json:"shards"`
	// Cells holds each shard's labels, Cells[i] owned by shard i.
	Cells [][]string `json:"cells"`
}

// Assign partitions labels across shards by Owner, preserving the
// given (enumeration) order within each shard.
func Assign(specKey string, labels []string, shards int) (AssignmentSet, error) {
	if shards <= 0 {
		return AssignmentSet{}, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if specKey == "" {
		return AssignmentSet{}, fmt.Errorf("shard: empty spec key")
	}
	a := AssignmentSet{SpecKey: specKey, Shards: shards, Cells: make([][]string, shards)}
	seen := make(map[string]bool, len(labels))
	for _, label := range labels {
		if label == "" {
			return AssignmentSet{}, fmt.Errorf("shard: empty cell label")
		}
		if seen[label] {
			return AssignmentSet{}, fmt.Errorf("shard: duplicate cell label %s", label)
		}
		seen[label] = true
		s := Owner(specKey, label, shards)
		a.Cells[s] = append(a.Cells[s], label)
	}
	return a, nil
}

// Encode serialises the assignment set for transport.
func (a AssignmentSet) Encode() ([]byte, error) {
	b, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("shard: encoding assignments: %w", err)
	}
	return b, nil
}

// DecodeAssignments parses and validates a transported assignment
// set: every label must sit in the shard Owner assigns it to, so a
// corrupted or adversarial partition can never silently re-map cells.
// It never panics on malformed input, and accepted input re-encodes
// to an equivalent value.
func DecodeAssignments(b []byte) (AssignmentSet, error) {
	var a AssignmentSet
	if err := json.Unmarshal(b, &a); err != nil {
		return AssignmentSet{}, fmt.Errorf("shard: decoding assignments: %w", err)
	}
	if err := a.Validate(); err != nil {
		return AssignmentSet{}, err
	}
	return a, nil
}

// Validate checks the partition invariants.
func (a AssignmentSet) Validate() error {
	if a.Shards <= 0 {
		return fmt.Errorf("shard: shard count %d must be positive", a.Shards)
	}
	if a.SpecKey == "" {
		return fmt.Errorf("shard: empty spec key")
	}
	if len(a.Cells) != a.Shards {
		return fmt.Errorf("shard: %d cell lists for %d shards", len(a.Cells), a.Shards)
	}
	seen := make(map[string]bool)
	for s, labels := range a.Cells {
		for _, label := range labels {
			if label == "" {
				return fmt.Errorf("shard: shard %d holds an empty label", s)
			}
			if seen[label] {
				return fmt.Errorf("shard: cell %s assigned twice", label)
			}
			seen[label] = true
			if own := Owner(a.SpecKey, label, a.Shards); own != s {
				return fmt.Errorf("shard: cell %s sits in shard %d but Owner assigns it to %d", label, s, own)
			}
		}
	}
	return nil
}
