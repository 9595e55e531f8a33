//go:build pooldebug

package boolmat

// check panics with a targeted message when a released matrix is
// accessed. Compiled in only under the pooldebug build tag.
func (m *Matrix) check() {
	if m.released {
		panic("boolmat: use of Matrix after Release")
	}
}
