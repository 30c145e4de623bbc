package core

// ClusterOptions configures a node's controller. It exists because
// benchmark/moves.go builds nodes with NodeOptions.Cluster and
// ClusterOptions{Replicas, Controller}; it goes in ROADMAP item 1's
// benchmark PR, the one PR that may change benchmark/.
type ClusterOptions struct {
	// Replicas must be 0 or 1: a node is one controller.
	Replicas int
	// Controller configures the node's controller.
	Controller Options
}

// Cluster is the controller's back-pointer to itself (Controller.Cluster).
// Like ClusterOptions it exists for benchmark/moves.go, which reads
// Node.Cluster and Cluster.Replica(0), and goes in ROADMAP item 1's
// benchmark PR.
type Cluster struct {
	*Controller
}

// Replica returns the controller; benchmark/moves.go asks for replica 0.
func (cl Cluster) Replica(int) *Controller { return cl.Controller }
