package algebra

// SetVecJoinWorkers pins the morsel join's worker count for tests in
// package algebra_test and returns the previous value.
func SetVecJoinWorkers(n int) int {
	prev := vecJoinWorkers
	vecJoinWorkers = n
	return prev
}
