package hotcycle

// Two annotated roots enter one un-annotated call cycle (cycA <-> cycB)
// at different members; the allocation inside the cycle must reach both.
// hotcyclerev declares the same functions in the opposite order, so
// between them each root is checked first once.

//kshape:hotpath
func root1(n int) int {
	return cycA(n) // want "call to cycA reaches a hot-path violation: make allocates"
}

func cycA(n int) int {
	buf := make([]int, 1)
	if n == 0 {
		return buf[0]
	}
	return cycB(n - 1)
}

func cycB(n int) int {
	return cycA(n)
}

//kshape:hotpath
func root2(n int) int {
	return cycB(n) // want "call to cycB reaches a hot-path violation: make allocates"
}
