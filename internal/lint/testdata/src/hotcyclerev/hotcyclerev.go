package hotcyclerev

// The hotcycle fixture in reverse declaration order: root2 enters the
// cycle at cycB and is checked before root1.

//kshape:hotpath
func root2(n int) int {
	return cycB(n) // want "call to cycB reaches a hot-path violation: make allocates"
}

func cycB(n int) int {
	return cycA(n)
}

func cycA(n int) int {
	buf := make([]int, 1)
	if n == 0 {
		return buf[0]
	}
	return cycB(n - 1)
}

//kshape:hotpath
func root1(n int) int {
	return cycA(n) // want "call to cycA reaches a hot-path violation: make allocates"
}
