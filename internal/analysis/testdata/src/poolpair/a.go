// Package poolpair exercises the poolpair analyzer with a local pool shaped
// like the core.Arena lifecycle (detection is name-matched).
package poolpair

import "errors"

type Arena struct{ n int }

func (a *Arena) Release()  {}
func (a *Arena) Work() int { return a.n }

func AcquireArena() *Arena { return &Arena{} }

var errBoom = errors.New("boom")

func deferred() int {
	a := AcquireArena()
	defer a.Release()
	return a.Work()
}

func deferredLit(done *bool) {
	a := AcquireArena()
	defer func() {
		*done = true
		a.Release()
	}()
	a.Work()
}

func directOnEveryPath(fail bool) error {
	a := AcquireArena()
	if fail {
		a.Release()
		return errBoom
	}
	a.Release()
	return nil
}

func escapes() *Arena {
	a := AcquireArena()
	return a // handoff: the caller owns it now
}

type holder struct{ a *Arena }

func stored() holder {
	a := AcquireArena()
	return holder{a: a} // stored in a struct: escaped
}

func leakyReturn(fail bool) error {
	a := AcquireArena()
	if fail {
		return errBoom // want `may reach this return without Release`
	}
	a.Release()
	return nil
}

func leakyEnd() {
	a := AcquireArena() // want `may reach the end of the function without Release`
	a.Work()
}

func discarded() {
	_ = AcquireArena() // want `AcquireArena result discarded`
}

func annotated() *Arena {
	a := AcquireArena() //slinfer:poolpair ownership recorded out of band in the registry
	globalReg.a = a
	return globalReg.a
}

var globalReg holder

func leakyInLiteral() {
	fn := func() {
		a := AcquireArena() // want `may reach the end of the function without Release`
		a.Work()
	}
	fn()
}
