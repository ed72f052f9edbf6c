// Package ctxpub exercises ctxflow outside the library prefix: the public
// package may start from a background context where no caller context
// exists, but still may not discard an in-scope caller context.
package ctxpub

import "context"

// Run is the context-aware entry point.
func Run(ctx context.Context, n int) error {
	return ctx.Err()
}

// Legacy delegates with a background context; no caller ctx is in scope
// and this is not a library package, so it is allowed.
func Legacy(n int) error {
	return Run(context.Background(), n)
}

// Shadowing discards the caller's context even here.
func Shadowing(ctx context.Context, n int) error {
	_ = ctx.Err()
	return Run(context.Background(), n) // want `context.Background\(\) discards the in-scope ctx parameter "ctx"`
}
