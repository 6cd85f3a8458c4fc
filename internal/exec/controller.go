package exec

import (
	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// This file is the engine's decision phase: the cache-management work
// the master does at every stage boundary, single-threaded. The
// decisions themselves are service.(*Advisor).Advance — the engine
// holds an Advisor as its accounting plane — so an executed run's
// advice fingerprints are the advisor's by construction. What the
// engine adds is the driver around it (the schedule, kill settlement,
// the current stage's creates) and the byte plane below it: bytePlane
// moves the real bytes (spills, drops, prefetch loads) after each
// accounting decision, so the workers' data tracks it.

// advance runs the boundary for one stage: pending worker-loss
// bookkeeping, then the current stage's creates (published before the
// task wave, so tasks know which cached RDDs to read and which to
// materialize), then the advisor's advance — the policy's purges and
// prefetches, the stage's frontier reads and its cached-output inserts.
func (e *Engine) advance(s *dag.Stage) error {
	if k := e.cfg.Kill; k != nil && !k.Mid && k.Stage == s.ID && !e.killApplied {
		// Boundary kill: both planes die at once, deterministically.
		e.nodes[k.Worker].wipeData()
		if err := e.adv.OnNodeFailure(k.Worker); err != nil {
			return err
		}
		e.killApplied = true
	}
	if e.pendingFail {
		// A mid-stage kill already destroyed the bytes; the master
		// "hears about it" now and settles the accounting. Cached
		// blocks that tasks re-ran and stored on the victim since then
		// were stored against the stale accounting, so they go too;
		// its shuffle output stays, since map tasks rewrote it.
		n := e.nodes[e.cfg.Kill.Worker]
		n.dropCached()
		if err := e.adv.OnNodeFailure(n.id); err != nil {
			return err
		}
		e.pendingFail = false
		e.killApplied = true
	}

	_, creates := dag.StageFrontier(s, e.adv.Created)
	e.curCreates = map[int]bool{}
	for _, r := range creates {
		e.curCreates[r.ID] = true
	}
	_, err := e.adv.Advance(s.ID)
	return err
}

// bytePlane is the engine's service.BytePlane: it moves the workers'
// bytes after the advisor's accounting decisions.
type bytePlane struct{ e *Engine }

// Evicted spills a MEMORY_AND_DISK block's bytes to disk and drops any
// other block's in-memory bytes.
func (p bytePlane) Evicted(nodeID int, info block.Info) {
	n := p.e.nodes[nodeID]
	if info.Level != block.MemoryAndDisk {
		n.dropMem(info.ID)
		return
	}
	if moved, ok := n.spillToDisk(info.ID); ok {
		p.e.ctr.add(func(c *counters) { c.spills++; c.spillBytes += moved })
	}
}

// Prefetched copies the block's on-disk bytes into memory.
func (p bytePlane) Prefetched(nodeID int, id block.ID) { p.e.nodes[nodeID].promoteToMem(id) }
