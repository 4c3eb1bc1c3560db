package cluster

import (
	"sort"
	"sync"
)

// ShardMap assigns the keyspace to fleet members with rendezvous
// (highest-random-weight) hashing over a fixed slot count. Every key hashes
// to one of Slots slots; every slot is owned by exactly one member — the
// member with the highest hash weight for that slot. The properties the
// fleet relies on:
//
//   - Deterministic: the same member set always produces the same
//     assignment, independent of join order.
//   - Minimal movement: adding a member moves only the slots the new member
//     now wins (roughly Slots/n), all FROM survivors TO the newcomer;
//     removing a member moves only ITS slots, scattered across survivors.
//     No slot ever moves between two members that are present before and
//     after the change.
//   - No orphans: while at least one member exists, every slot has an
//     owner.
//
// Writes route by key through the map, which is what keeps per-member lock
// tables sufficient: two members never own the same key at the same time.
type ShardMap struct {
	slots int

	mu      sync.RWMutex
	members []int // sorted, for deterministic iteration
	owner   []int // slot -> owning member id
}

// DefaultSlots is the shard granularity every fleet uses: fine enough
// that load spreads across a handful of members, coarse enough that
// membership changes re-route a bounded key set.
const DefaultSlots = 64

// NewShardMap builds a map with the given (positive) slot count over the
// initial member set.
func NewShardMap(slots int, members ...int) *ShardMap {
	m := &ShardMap{slots: slots, owner: make([]int, slots)}
	m.members = append(m.members, members...)
	sort.Ints(m.members)
	m.rebuildLocked(nil)
	return m
}

// Slots reports the slot count.
func (m *ShardMap) Slots() int { return m.slots }

// Members returns the current member set (sorted copy).
func (m *ShardMap) Members() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]int(nil), m.members...)
}

// SlotOf reports the slot a key hashes to (member-set independent).
func (m *ShardMap) SlotOf(key uint64) int {
	return int(mix(key) % uint64(m.slots))
}

// Owner reports the member owning the key's slot, or -1 if the map is
// empty.
func (m *ShardMap) Owner(key uint64) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.members) == 0 {
		return -1
	}
	return m.owner[m.SlotOf(key)]
}

// OwnerOfSlot reports the member owning a slot, or -1 if the map is empty.
func (m *ShardMap) OwnerOfSlot(slot int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.members) == 0 {
		return -1
	}
	return m.owner[slot]
}

// Add joins a member and returns the slots that changed owner (each gained
// by the newcomer). Adding a present member is a no-op.
func (m *ShardMap) Add(id int) (moved []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.members {
		if v == id {
			return nil
		}
	}
	m.members = append(m.members, id)
	sort.Ints(m.members)
	return m.rebuildLocked(nil)
}

// Remove retires a member and returns the slots that changed owner (each
// previously the removed member's, now scattered across survivors).
// gainers, when non-nil, collects the set of members that gained at least
// one slot — the members a failover must warm.
func (m *ShardMap) Remove(id int, gainers map[int]bool) (moved []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.members[:0]
	found := false
	for _, v := range m.members {
		if v == id {
			found = true
			continue
		}
		kept = append(kept, v)
	}
	if !found {
		return nil
	}
	m.members = kept
	return m.rebuildLocked(gainers)
}

// rebuildLocked recomputes every slot's owner and returns the slots whose
// owner changed, recording gaining members in gainers when non-nil.
func (m *ShardMap) rebuildLocked(gainers map[int]bool) (moved []int) {
	if len(m.members) == 0 {
		for i := range m.owner {
			m.owner[i] = -1
		}
		return nil
	}
	for slot := range m.owner {
		best, bestW := -1, uint64(0)
		for _, id := range m.members {
			if w := weight(uint64(slot), uint64(id)); best == -1 || w > bestW {
				best, bestW = id, w
			}
		}
		if m.owner[slot] != best {
			moved = append(moved, slot)
			if gainers != nil {
				gainers[best] = true
			}
			m.owner[slot] = best
		}
	}
	return moved
}

// weight is the rendezvous hash of (slot, member).
func weight(slot, member uint64) uint64 {
	return mix(slot*0x9E3779B97F4A7C15 ^ mix(member+0xD1B54A32D192ED03))
}

// mix is a splitmix64-style finalizer: avalanche so nearby keys and member
// ids land on uncorrelated slots/weights.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
