// Package server is the recoverguard fixture: every goroutine here must
// install a recover handler.
package server

func work() {}

func handle(r any) {
	_ = r
}

// guardedLit: the canonical pattern — deferred literal, direct recover.
func guardedLit() {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				handle(r)
			}
		}()
		work()
	}()
}

// guardedHandlerArg: recover's result handed to a handler is still a
// direct recover call in the deferred frame.
func guardedHandlerArg() {
	go func() {
		defer func() { handle(recover()) }()
		work()
	}()
}

// guardedDecl: launching a same-package function that defers recover.
func guardedDecl() {
	go loop()
}

func loop() {
	defer func() { handle(recover()) }()
	work()
}

// guardedDeferredDecl: the deferred handler may itself be a named
// same-package function, as long as it calls recover directly.
func guardedDeferredDecl() {
	go func() {
		defer catch()
		work()
	}()
}

func catch() {
	if r := recover(); r != nil {
		handle(r)
	}
}

type svc struct{}

func (svc) run() {
	defer func() { handle(recover()) }()
	work()
}

func (svc) bare() { work() }

// guardedMethod: method resolution works like function resolution.
func guardedMethod() {
	var s svc
	go s.run()
}

func bareLit() {
	go func() { // want `goroutine without a recover handler`
		work()
	}()
}

func bareDecl() {
	go work() // want `goroutine without a recover handler`
}

func bareMethod() {
	var s svc
	go s.bare() // want `goroutine without a recover handler`
}

// nestedRecover: a recover inside a nested literal runs in the wrong
// frame — the goroutine is NOT guarded.
func nestedRecover() {
	go func() { // want `goroutine without a recover handler`
		f := func() {
			defer func() { handle(recover()) }()
		}
		f()
		work()
	}()
}

// deferRecoverAlone: `defer recover()` famously does not stop a panic
// (recover must be called BY the deferred function, and the bare builtin
// is not resolvable as one) — flagged.
func deferRecoverAlone() {
	go func() { // want `goroutine without a recover handler`
		defer recover()
		work()
	}()
}

// suppressed: the escape hatch, reason mandatory by convention.
func suppressed() {
	//lint:ignore recoverguard fixture demonstrates the suppression path
	go work()
}
