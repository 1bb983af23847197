package algebra

// SetJoinWorkers pins the morsel join's worker count for tests in
// package algebra_test and returns the previous value.
func SetJoinWorkers(n int) int {
	prev := joinWorkers
	joinWorkers = n
	return prev
}
