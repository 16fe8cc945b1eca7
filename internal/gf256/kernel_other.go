//go:build !amd64

package gf256

// Off amd64 the Go loops do every byte: no vector body runs.
var useVector, useGFNI = false, false

func genKernelTables()                               {}
func applyGFNI(rows, in, out [][]byte) bool          { return false }
func mulAddVec(c byte, src, dst []byte) int          { return 0 }
func mulAdd2Vec(c0, c1 byte, src, d0, d1 []byte) int { return 0 }
