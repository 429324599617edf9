package world

import "testing"

// TestPoolFIFO pins the pool contract Run's dispatch loop depends on:
// single-worker pools run tasks strictly in submission order, and
// Close drains everything already submitted.
func TestPoolFIFO(t *testing.T) {
	p := NewPool(1)
	var order []int
	done := make(chan struct{})
	for i := 0; i < 50; i++ {
		i := i
		p.Submit(func() {
			order = append(order, i)
			if i == 49 {
				close(done)
			}
		})
	}
	<-done
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("task %d ran at position %d", v, i)
		}
	}

	// Submit after Close degrades to synchronous execution.
	ran := false
	p.Submit(func() { ran = true })
	if !ran {
		t.Fatal("post-Close Submit did not run the task")
	}
}
