//go:build !pooldebug

package boolmat

// check is the use-after-release detector; an empty inlined method in
// release builds (a released matrix still panics on access there, via
// the nil slab, just without the targeted message).
func (m *Matrix) check() {}
