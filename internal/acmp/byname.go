package acmp

import (
	"fmt"
	"strings"
	"sync"
)

// Shared platform instances. One instance per hardware model — instead of a
// fresh model per caller — spares every session build its own power table
// and config ladder, and the constructors build the lazy config ladder
// eagerly so sharing is race-free. Nothing is keyed by the pointer: the
// artifact store hashes a platform's fields afresh for every session key,
// so an instance's identity never decides a cache hit.
var (
	sharedOnce   sync.Once
	sharedExynos *Platform
	sharedTX2    *Platform
)

// ByName resolves a platform name to its shared, process-wide hardware
// model. Names are case-insensitive; the empty string, "exynos5410",
// "exynos" and "odroid" select the Exynos 5410, while "tx2", "tx2parker"
// and "parker" select the TX2 Parker (the canonical model names are
// accepted too). Callers must treat the returned platform as immutable.
func ByName(name string) (*Platform, error) {
	sharedOnce.Do(func() {
		sharedExynos = Exynos5410()
		sharedTX2 = TX2Parker()
	})
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "exynos5410", "exynos", "odroid":
		return sharedExynos, nil
	case "tx2", "tx2parker", "parker":
		return sharedTX2, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want exynos5410 or tx2)", name)
}
