//go:build !amd64

package main

// cpuModel reports "unknown" on architectures without the CPUID brand
// string.
func cpuModel() string { return "unknown" }
