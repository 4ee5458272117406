package workload

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/txvm"
)

// This file lowers the workload bodies into txvm op tapes, the only
// production executor. Each compiler emits, for one thread id, exactly
// the op and RNG-draw sequence of the closure-based reference body in
// the sibling *_test.go file, so the two produce bit-identical Stats
// (pinned by TestCompiledMatchesInterpreted). Any edit to a tape must
// be mirrored in its reference body, and vice versa.

var (
	spreadStride = int64(addr.MacroBlockBytes + addr.BlockBytes) // spreadAt
	blockStride  = int64(addr.BlockBytes)                        // blockAt
)

const noReg = txvm.NoReg

// spawnCompiled places n stepped tape threads round-robin over the
// machine's contexts (cores first, then SMT ways), in inst's address
// space, and records the attached machines in thread-ID order in
// inst.Machines for snapshot capture.
func spawnCompiled(sys *core.System, inst *Instance, n int, name string, build func(id int) *txvm.Program) (*Instance, error) {
	if n > sys.P.Contexts() {
		return nil, fmt.Errorf("workload: %d threads exceed %d contexts (use the osm scheduler for oversubscription)", n, sys.P.Contexts())
	}
	inst.Machines = make([]*txvm.Machine, 0, n)
	for i := 0; i < n; i++ {
		c := i % sys.P.Cores
		th := (i / sys.P.Cores) % sys.P.ThreadsPerCore
		t := sys.SpawnStepped(fmt.Sprintf("%s-%d", name, i), 1, inst.PT)
		inst.Machines = append(inst.Machines, txvm.Attach(sys, t, build(i)))
		if err := sys.Place(t, c, th); err != nil {
			return nil, err
		}
		sys.Start(t)
	}
	return inst, nil
}

// --- BerkeleyDB ---------------------------------------------------------------

func compileBDB(cfg Config, units, id int, expected *atomic.Int64) *txvm.Program {
	const (
		rUnits = iota
		rTx
		rKr
		rKw
		rMeta
		rPeekF
		rPeek
		rDB
	)
	myUnits := split(units, cfg.Threads, id)
	b := txvm.NewBuilder()
	b.Set(rUnits, int64(myUnits))
	b.Label("unit")
	b.Jz(rUnits, "end")
	b.Set(rTx, bdbTxnsPerUnit)
	b.Label("tx")
	b.DrawCount(rKr, 7.3, 27)
	b.ZipfVec(0, rKr, bdbLockBlocks, 1.5)
	b.DrawCount(rKw, 7.6, 27)
	b.ZipfVec(1, rKw, bdbLockBlocks, 2.8)
	b.SortVec(1)
	b.RandFlag(rMeta, 0.5)
	b.RandFlag(rPeekF, 0.1)
	b.Jz(rPeekF, "peek.drawn")
	b.Zipf(rPeek, bdbLockBlocks, 2.0)
	b.Label("peek.drawn")
	b.RandInt(rDB, bdbDBWords)
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(regionLocks, noReg, 0)
	}
	b.FetchAdd(noReg, privBase(id), noReg, 0, 0, 1, true) // escaped
	b.Jz(rMeta, "meta.load")
	b.FetchAdd(noReg, regionMeta, noReg, 0, 0, 1, false)
	b.Jmp("meta.done")
	b.Label("meta.load")
	b.Load(noReg, regionMeta, noReg, 0, 0)
	b.Label("meta.done")
	b.Jz(rPeekF, "peek.done")
	b.Load(noReg, regionA, rPeek, spreadStride, 0)
	b.Label("peek.done")
	b.ForFetchAddV(1, regionA, spreadStride, 1)
	b.ForLoadV(0, regionB, spreadStride)
	b.Load(noReg, regionC, rDB, int64(addr.WordBytes), 0)
	b.Compute(20)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(regionLocks, noReg, 0)
	}
	b.CounterAdd(expected, rKw, 0)
	b.Compute(150)
	b.AddI(rTx, rTx, -1)
	b.Jnz(rTx, "tx")
	b.WorkUnit()
	b.AddI(rUnits, rUnits, -1)
	b.Jmp("unit")
	b.Label("end")
	b.Done()
	return b.MustBuild(fmt.Sprintf("bdb-%d", id))
}

// --- Cholesky -----------------------------------------------------------------

func compileCholesky(cfg Config, tasks, id int, done *core.Barrier) *txvm.Program {
	const (
		rHead = iota
		rNext
		rZero
		rPriv
	)
	b := txvm.NewBuilder()
	b.Set(rZero, 0)
	b.Set(rPriv, 8)
	b.Label("pop")
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(regionLocks, noReg, 0)
	}
	b.Load(rHead, blockAt(regionA, 0), noReg, 0, 0)
	b.Load(noReg, blockAt(regionA, 1), noReg, 0, 0)
	b.Load(noReg, blockAt(regionA, 2), noReg, 0, 0)
	b.Load(noReg, blockAt(regionA, 3), noReg, 0, 0)
	b.JgeI(rHead, int64(tasks), "drained")
	b.AddI(rNext, rHead, 1)
	b.Store(blockAt(regionA, 0), noReg, 0, 0, rNext)
	b.Store(blockAt(regionA, 1), noReg, 0, 0, rNext)
	b.Jmp("popped")
	b.Label("drained")
	b.Store(blockAt(regionA, 2), noReg, 0, 0, rHead)
	b.Store(blockAt(regionA, 3), noReg, 0, 0, rHead)
	b.Label("popped")
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(regionLocks, noReg, 0)
	}
	b.JgeI(rHead, int64(tasks), "bar")
	// Numeric kernel: 8 private stores of head+i, then compute.
	b.ForStore(privBase(id), rZero, 0, rPriv, 0, blockStride, rHead, true)
	b.Compute(choleskyKernelCost)
	b.Jmp("pop")
	b.Label("bar")
	b.BarrierWait(done)
	if id == 0 {
		b.WorkUnit()
	}
	b.Done()
	return b.MustBuild(fmt.Sprintf("chol-%d", id))
}

// --- Raytrace -----------------------------------------------------------------

func compileRaytrace(cfg Config, rays, id int, issued *atomic.Int64, done *core.Barrier) *txvm.Program {
	const (
		rRays = iota
		rReads
		rStart
		rPix
		rV
		rFlag
		rSpan
		rBase
		rHalf
		rMid
	)
	myRays := split(rays, cfg.Threads, id)
	b := txvm.NewBuilder()
	b.Set(rRays, int64(myRays))
	b.Label("ray")
	b.Jz(rRays, "bar")
	b.DrawCount(rReads, 3.9, 17)
	b.RandInt(rStart, raytraceSceneSize)
	b.RandInt(rPix, raytraceImageSize)
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(regionLocks, noReg, 0)
	}
	b.FetchAdd(rV, regionMeta, noReg, 0, 0, 1, false)
	b.ForLoad(regionA, rStart, 0, rReads, raytraceSceneSize, blockStride)
	b.Store(regionC, rPix, blockStride, 0, rV)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(regionLocks, noReg, 0)
	}
	b.CounterAdd(issued, noReg, 1)
	b.Compute(180)
	b.RandFlag(rFlag, 1.0/raytraceBigEvery)
	b.Jz(rFlag, "nobig")
	b.RandInt(rSpan, 380)
	b.AddI(rSpan, rSpan, 60)
	b.RandFlag(rFlag, 0.06)
	b.Jz(rFlag, "span.drawn")
	b.RandInt(rSpan, 70)
	b.AddI(rSpan, rSpan, 480)
	b.Label("span.drawn")
	b.RandInt(rBase, raytraceSceneSize)
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(blockAt(regionLocks, 1), noReg, 0)
	}
	b.Store(regionA, rBase, blockStride, raytraceSceneSize, rSpan)
	b.DivI(rHalf, rSpan, 2)
	b.Add(rMid, rBase, rHalf)
	b.Store(regionA, rMid, blockStride, raytraceSceneSize, rSpan)
	b.ForLoad(regionA, rBase, 0, rSpan, raytraceSceneSize, blockStride)
	b.Store(blockAt(regionB, id), noReg, 0, 0, rBase)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(blockAt(regionLocks, 1), noReg, 0)
	}
	b.Label("nobig")
	b.AddI(rRays, rRays, -1)
	b.Jmp("ray")
	b.Label("bar")
	b.BarrierWait(done)
	if id == 0 {
		b.WorkUnit()
	}
	b.Done()
	return b.MustBuild(fmt.Sprintf("ray-%d", id))
}

// --- Mp3d ---------------------------------------------------------------------

func compileMp3d(cfg Config, steps, id int, moves *atomic.Int64, stepBar *core.Barrier) *txvm.Program {
	const (
		rStep = iota
		rMol
		rFlag
		rCell
		rExtra
		rT
		rV
		rV1
		rCnt
		rWB
	)
	myMols := split(mp3dMolecules, cfg.Threads, id)
	molBase := blockAt(regionB, id*myMols)
	b := txvm.NewBuilder()
	b.Set(rStep, int64(steps))
	b.Label("step")
	b.Set(rMol, 0)
	b.Label("mol")
	b.JgeI(rMol, int64(myMols), "step.end")
	b.RandFlag(rFlag, 0.27)
	b.Jz(rFlag, "next")
	b.RandInt(rCell, mp3dCells)
	b.DrawCount(rExtra, 1.3, 16)
	b.AddI(rExtra, rExtra, -1)
	b.RandFlag(rT, 0.015)
	b.Jz(rT, "chain.drawn")
	b.RandInt(rExtra, 13)
	b.AddI(rExtra, rExtra, 4)
	b.Label("chain.drawn")
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		// Fine-grained cell locks, taken in sorted order (WithAll).
		b.AddI(rT, rExtra, 1)
		b.SeqVec(0, rCell, rT, 0, mp3dCells)
		b.LockAcqVec(0, regionLocks, mp3dCells)
	}
	b.Load(noReg, molBase, rMol, blockStride, 0)
	b.Load(rV, regionA, rCell, spreadStride, 0)
	b.ForLoad(regionA, rCell, 1, rExtra, mp3dCells, spreadStride)
	b.AddI(rV1, rV, 1)
	b.Store(regionA, rCell, spreadStride, 0, rV1)
	// Momentum-exchange store count: extra > 2 ? min(extra/2+1, 8) : 0.
	b.Set(rCnt, 0)
	b.JltI(rExtra, 3, "mom")
	b.DivI(rCnt, rExtra, 2)
	b.AddI(rCnt, rCnt, 1)
	b.MinI(rCnt, rCnt, 8)
	b.Label("mom")
	b.ForStore(regionC, rCell, 0, rCnt, mp3dCells, spreadStride, rExtra, false)
	b.RandFlag(rWB, 0.7)
	b.Jz(rWB, "wb.done")
	b.Store(molBase, rMol, blockStride, 0, rCell)
	b.Label("wb.done")
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRelVec(0, regionLocks, mp3dCells)
	}
	b.CounterAdd(moves, noReg, 1)
	b.Compute(3200)
	b.Label("next")
	b.AddI(rMol, rMol, 1)
	b.Jmp("mol")
	b.Label("step.end")
	b.BarrierWait(stepBar)
	if id == 0 {
		b.WorkUnit()
	}
	b.AddI(rStep, rStep, -1)
	b.Jnz(rStep, "step")
	b.Done()
	return b.MustBuild(fmt.Sprintf("mp3d-%d", id))
}

// --- Radiosity ----------------------------------------------------------------

func compileRadiosity(cfg Config, tasks, id int, patchWrites *atomic.Int64) *txvm.Program {
	const (
		rTask = iota
		rIn
		rQ
		rFlag
		rN
		rQQ
		rV
		rT
	)
	myTasks := split(tasks, cfg.Threads, id)
	b := txvm.NewBuilder()
	b.Set(rTask, int64(myTasks))
	b.Label("task")
	b.Jz(rTask, "end")
	b.Set(rQ, int64(id%radiosityQueues))
	b.RandFlag(rFlag, 0.25)
	b.Jz(rFlag, "q.done")
	b.RandInt(rQ, radiosityQueues)
	b.Label("q.done")
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(regionLocks, rQ, radiosityQueues)
	}
	b.FetchAdd(noReg, regionB, rQ, spreadStride, 0, 1, false)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(regionLocks, rQ, radiosityQueues)
	}
	b.Set(rIn, radiosityTxnsPerTask)
	b.Label("inner")
	b.RandFlag(rFlag, 0.03)
	b.Jz(rFlag, "patch")
	// Batch enqueue: write a span of queue blocks.
	b.DrawCount(rN, 12, 44)
	b.RandInt(rQQ, radiosityQueues)
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(regionLocks, rQQ, radiosityQueues)
	}
	b.Load(rV, regionB, rQQ, spreadStride, 0)
	b.MulI(rT, rQQ, 64)
	b.ForStore(regionC, rT, 0, rN, 0, blockStride, rV, true)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(regionLocks, rQQ, radiosityQueues)
	}
	b.Compute(100)
	b.Jmp("cont")
	b.Label("patch")
	b.RandInt(rN, radiosityPatches)
	b.DrawCount(rQQ, 2.0, 24)
	b.AddI(rQQ, rQQ, -1)
	if cfg.Mode == TM {
		b.Begin(false)
	} else {
		b.LockAcq(blockAt(regionLocks, 8), rN, 64)
	}
	b.Load(rV, regionA, rN, blockStride, 0)
	b.ForLoad(regionA, rN, 1, rQQ, radiosityPatches, blockStride)
	b.AddI(rT, rV, 1)
	b.Store(regionA, rN, blockStride, 0, rT)
	if cfg.Mode == TM {
		b.Commit()
	} else {
		b.LockRel(blockAt(regionLocks, 8), rN, 64)
	}
	b.CounterAdd(patchWrites, noReg, 1)
	b.Compute(900)
	b.Label("cont")
	b.AddI(rIn, rIn, -1)
	b.Jnz(rIn, "inner")
	b.WorkUnit()
	b.AddI(rTask, rTask, -1)
	b.Jmp("task")
	b.Label("end")
	b.Done()
	return b.MustBuild(fmt.Sprintf("rad-%d", id))
}

// --- NestedMicro --------------------------------------------------------------

func compileNestedMicro(cfg Config, units, id int, opens *atomic.Int64) *txvm.Program {
	const (
		rU = iota
		rSlot
		rS
	)
	myUnits := split(units, cfg.Threads, id)
	priv := privBase(id)
	b := txvm.NewBuilder()
	b.Set(rU, 0)
	b.Label("unit")
	b.JgeI(rU, int64(myUnits), "end")
	b.RandInt(rSlot, 256)
	b.ModI(rS, rSlot, 64)
	if cfg.Mode == TM {
		b.Begin(false)
		b.Store(priv, noReg, 0, 0, rU)
		b.Begin(false)
		b.FetchAdd(noReg, regionA, rS, spreadStride, 0, 1, false)
		b.Commit()
		b.Begin(false)
		b.FetchAdd(noReg, regionB, rS, spreadStride, 0, 1, false)
		b.Commit()
		b.Begin(true) // open-nested statistics update
		b.FetchAdd(noReg, regionMeta, noReg, 0, 0, 1, false)
		b.Commit()
		b.Compute(60)
		b.Commit()
	} else {
		b.LockAcq(regionLocks, noReg, 0)
		b.Store(priv, noReg, 0, 0, rU)
		b.FetchAdd(noReg, regionA, rS, spreadStride, 0, 1, false)
		b.FetchAdd(noReg, regionB, rS, spreadStride, 0, 1, false)
		b.FetchAdd(noReg, regionMeta, noReg, 0, 0, 1, false)
		b.Compute(60)
		b.LockRel(regionLocks, noReg, 0)
	}
	b.CounterAdd(opens, noReg, 1)
	b.WorkUnit()
	b.Compute(120)
	b.AddI(rU, rU, 1)
	b.Jmp("unit")
	b.Label("end")
	b.Done()
	return b.MustBuild(fmt.Sprintf("nest-%d", id))
}
