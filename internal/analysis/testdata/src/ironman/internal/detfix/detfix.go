// Package detfix exercises detrange: nondeterminism sources on
// transcript-relevant paths fire, order-insensitive and off-wire code
// stays silent.
package detfix

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ironman/internal/transport"
)

// sendLoop sends map values in iteration order: the canonical
// transcript-divergence bug.
func sendLoop(c transport.Conn, m map[int][]byte) error {
	for _, v := range m { // want "map iteration order in sendLoop is transcript-relevant"
		if err := c.Send(v); err != nil {
			return err
		}
	}
	return nil
}

// stamp mixes every non-range nondeterminism source into a function
// that sends.
func stamp(c transport.Conn) error {
	t := time.Now() // want "time.Now in stamp is transcript-relevant"
	_ = t
	n := rand.Int() // want "math/rand.Int in stamp is transcript-relevant"
	_ = n
	w := runtime.GOMAXPROCS(0) // want "runtime.GOMAXPROCS in stamp is transcript-relevant"
	_ = w
	return c.Send(nil)
}

// helper reaches a send only through sendLoop; sources here are still
// transcript-relevant.
func helper(c transport.Conn, m map[int][]byte) error {
	d := time.Now() // want "time.Now in helper is transcript-relevant"
	_ = d
	return sendLoop(c, m)
}

// collectSorted is the compliant idiom: an append-only map range
// followed by a sort is exempt.
func collectSorted(c transport.Conn, m map[int][]byte) error {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if err := c.Send(m[k]); err != nil {
			return err
		}
	}
	return nil
}

// offWire never reaches a transport send; map order is its own
// business.
func offWire(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// auditedSend carries a justified suppression.
func auditedSend(c transport.Conn, m map[int][]byte) error {
	//ironman:allow(detrange) fixture: the peer decodes these frames order-independently
	for _, v := range m {
		if err := c.Send(v); err != nil {
			return err
		}
	}
	return nil
}

// badDirective has a directive with no reason: the finding survives,
// annotated.
func badDirective(c transport.Conn, m map[int][]byte) error {
	//ironman:allow(detrange)
	for _, v := range m { // want "must carry a reason"
		if err := c.Send(v); err != nil {
			return err
		}
	}
	return nil
}

// wrongAnalyzer names a different analyzer: no suppression. Detrange
// indexes only directives naming it, so the directive is not its
// finding either; randsrc, run here, would report it as suppressing
// nothing.
func wrongAnalyzer(c transport.Conn, m map[int][]byte) error {
	//ironman:allow(randsrc) fixture: names the wrong analyzer
	for _, v := range m { // want "map iteration order in wrongAnalyzer is transcript-relevant"
		if err := c.Send(v); err != nil {
			return err
		}
	}
	return nil
}
