//go:build !amd64

package cpu

// probe finds nothing off amd64: there are no kernels to run.
func probe() features { return features{} }
