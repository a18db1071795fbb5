//go:build !amd64

package edit

import "testing"

// eachLanePath runs f on the one path there is off amd64.
func eachLanePath(t *testing.T, f func(t *testing.T)) {
	t.Run("scalar", f)
}
