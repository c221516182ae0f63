//go:build !amd64

package cpufeat

func detectAVX() bool    { return false }
func detectAVX2() bool   { return false }
func detectAVX512() bool { return false }
