//go:build !amd64

package gf256

// Off amd64 the Go loops do every byte: no vector body runs.
var useVector = false

func mulAddVec(c byte, src, dst []byte) int          { return 0 }
func mulAdd2Vec(c0, c1 byte, src, d0, d1 []byte) int { return 0 }
