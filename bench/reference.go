package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on shares its caches and memory with other
// tenants, and its speed drifts by tens of percent for minutes at a time
// (README "Noise"). The harness therefore times a fixed reference loop
// just before and just after every measured replay and set-up, and
// rescales each wall time by how much slower than refNominal the loop ran
// around it. The loop lives here, not in the simulator, so no change to
// the simulator moves it.

// refNominal is about the reference loop's fastest time on a 2-vCPU
// Sapphire Rapids Xeon VM (Go 1.24). Normalized times read as wall times
// on that host when nothing else contends for it; the value only scales
// them.
const refNominal = 0.030

// hostReference times par copies of the reference loop run at once, one
// per goroutine, so that it meets the host the way a replay on par
// goroutines does: a fleet waits at every epoch barrier for its slowest
// worker, and so does this.
func hostReference(par int) float64 {
	sums := make([]uint64, par)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = referenceLoop()
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, s := range sums {
		refSink += s
	}
	return wall
}

// refEvents is the number of events one reference loop processes.
const refEvents = 1 << 16

// refSink keeps the reference loop's results live.
var refSink uint64

type refEvent struct {
	t    float64
	id   int32
	kind int32
}

type refEntity struct {
	queue []int32
	wait  float64
}

type refRecord struct {
	arrival, start float64
	tokens         [6]int32
}

type refNode struct {
	key  uint64
	next *refNode
	hits uint64
}

// referenceLoop runs a small, fixed discrete-event loop shaped like the
// simulator's work: a binary event heap, entity lookups in a map, short-
// lived request records, and a churning map of linked nodes. It returns a
// checksum of its state.
func referenceLoop() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var heap []refEvent
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].t <= heap[i].t {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && heap[r].t < heap[c].t {
				c = r
			}
			if heap[i].t <= heap[c].t {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}

	const entities = 512
	ents := make(map[int32]*refEntity, entities)
	for i := int32(0); i < entities; i++ {
		ents[i] = &refEntity{}
	}
	records := make([]*refRecord, 1<<15)
	nodes := make(map[uint64]*refNode, 1024)
	var head *refNode
	for i := 0; i < 4096; i++ {
		push(refEvent{t: float64(rnd()%1000) / 10, id: int32(rnd() % entities)})
	}
	for k := 0; k < refEvents; k++ {
		e := pop()
		now := e.t
		en := ents[e.id]
		slot := int32(k & (len(records) - 1))
		if e.kind == 0 {
			records[slot] = &refRecord{arrival: now}
			en.queue = append(en.queue, slot)
			push(refEvent{t: now + float64(rnd()%100)/10, id: e.id, kind: 1})
		} else if len(en.queue) > 0 {
			if r := records[en.queue[0]]; r != nil {
				r.start = now
				en.wait += now - r.arrival
			}
			en.queue = en.queue[1:]
		}
		push(refEvent{t: now + float64(rnd()%1000)/10, id: int32(rnd() % entities)})

		key := rnd() & 0xffff
		if nd, ok := nodes[key]; ok {
			nd.hits++
			continue
		}
		head = &refNode{key: key, next: head}
		nodes[key] = head
		if len(nodes) > 8192 {
			nodes = make(map[uint64]*refNode, 1024)
			head = nil
		}
	}
	return uint64(len(heap)+len(nodes)) + x
}
