package models

import (
	"fmt"
	"time"

	"pesto/internal/graph"
)

// NASNetConfig parameterizes the NASNet CNN [Zoph et al.] the paper
// trains on ImageNet (§5.2: 4 cells × 212 filters, 6 × 148, 6 × 168,
// batch 32). Each cell is composed of parallel branches of separable
// convolutions and poolings — "providing an opportunity for parallel
// execution", which the branch-splitting Expert and Pesto both exploit.
type NASNetConfig struct {
	// Cells is the number of normal cells.
	Cells int
	// Filters is the filter count per cell.
	Filters int
	// Batch is images per batch (paper: 32).
	Batch int
	// Spatial is the feature-map side length; zero means 28.
	Spatial int
	// TargetMemory calibrates the total footprint; zero keeps raw.
	TargetMemory int64
}

// blocksPerCell is the number of two-branch blocks per cell (the
// NASNet-A cell).
const blocksPerCell = 5

func (c NASNetConfig) withDefaults() NASNetConfig {
	if c.Spatial == 0 {
		c.Spatial = 28
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	return c
}

// NASNet builds the forward+backward training graph: a stem, Cells
// normal cells (each 5 blocks × 2 branches of separable convolutions),
// reduction cells between thirds, and the classifier head. Branch
// operations carry Branch tags so the Expert strategy can split them
// across GPUs; the untagged stem/concat/classifier ops are what
// unbalance Expert's memory footprint on the large variants (Figure 7's
// OOMs).
func NASNet(cfg NASNetConfig) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.Cells < 1 || cfg.Filters < 1 {
		return nil, fmt.Errorf("nasnet: invalid config %+v", cfg)
	}
	B, S, F := cfg.Batch, cfg.Spatial, cfg.Filters
	b := newBuilder(cfg.Cells * blocksPerCell * 30)

	mapElems := B * S * S * F
	mapBytes := tensorBytes(mapElems)

	input := b.cpu("input_pipeline", 0, 120*time.Microsecond)
	stem := b.gpu("stem_conv", 1, matmulCost(1, B*S*S, 27, F), tensorBytes(mapElems))
	b.edge(input, stem, tensorBytes(B*S*S*3))

	prev := stem
	layer := 1
	fwCellOuts := make([]graph.NodeID, 0, cfg.Cells)
	for c := 0; c < cfg.Cells; c++ {
		layer++
		prev = nasnetCell(b, fmt.Sprintf("cell%d", c), layer, cfg, prev, 1)
		fwCellOuts = append(fwCellOuts, prev)
		// A reduction cell after each third of the normal cells.
		if cfg.Cells >= 3 && (c+1)%(cfg.Cells/3+1) == 0 {
			layer++
			red := b.gpu(fmt.Sprintf("reduction%d", c), layer, matmulCost(1, B*S*S/4, F, F), tensorBytes(mapElems/2))
			b.edge(prev, red, mapBytes)
			prev = red
		}
	}

	layer++
	gap := b.gpu("global_avg_pool", layer, elemwiseCost(mapElems), tensorBytes(B*F))
	b.edge(prev, gap, mapBytes)
	fc := b.gpu("classifier", layer, matmulCost(1, B, F, 1000), tensorBytes(B*1000)+tensorBytes(F*1000))
	b.edge(gap, fc, tensorBytes(B*F))
	loss := b.gpu("loss", layer, elemwiseCost(B*1000), tensorBytes(B))
	b.edge(fc, loss, tensorBytes(B*1000))

	// Backward: one mirrored cell per forward cell at 2× cost.
	grad := b.gpu("bw/loss_grad", layer, 2*elemwiseCost(B*1000), tensorBytes(B*F))
	b.edge(loss, grad, tensorBytes(B))
	bwLayer := layer
	for c := cfg.Cells - 1; c >= 0; c-- {
		g2 := nasnetCell(b, fmt.Sprintf("bw/cell%d", c), bwLayer, cfg, grad, 2)
		// Activation reuse from the forward cell.
		b.edge(fwCellOuts[c], g2, mapBytes)
		grad = g2
		bwLayer--
		if bwLayer < 1 {
			bwLayer = 1
		}
	}
	apply := b.gpu("apply_grads", 1, elemwiseCost(mapElems/8), tensorBytes(mapElems/4))
	b.edge(grad, apply, tensorBytes(mapElems/4))

	g, err := b.finish("nasnet")
	if err != nil {
		return nil, err
	}
	scaleMemory(g, cfg.TargetMemory)
	return g, nil
}

// nasnetCell emits one NASNet-A style cell: blocksPerCell blocks, each
// with two tagged parallel branches joined by an add; block outputs
// concatenate. Branch tags are 1-based and unique within the cell.
func nasnetCell(b *builder, name string, layer int, cfg NASNetConfig, in graph.NodeID, bwScale int) graph.NodeID {
	B, S, F := cfg.Batch, cfg.Spatial, cfg.Filters
	mapElems := B * S * S * F
	mapBytes := tensorBytes(mapElems)
	sc := time.Duration(bwScale)

	concat := b.gpu(name+"/concat", layer, sc*elemwiseCost(mapElems), tensorBytes(mapElems))
	vecBytes := tensorBytes(F)
	tiny := elemwiseCost(F) // per-channel vector ops, the Table 1 <10µs mass
	for blk := 0; blk < blocksPerCell; blk++ {
		add := b.gpu(fmt.Sprintf("%s/block%d/add", name, blk), layer, sc*elemwiseCost(mapElems), tensorBytes(mapElems))
		for br := 0; br < 2; br++ {
			branchIdx := blk*2 + br + 1
			bn := fmt.Sprintf("%s/block%d/branch%d", name, blk, br)
			bop := func(suffix string, cost time.Duration, mem int64) graph.NodeID {
				return b.gpuBranch(bn+suffix, layer, branchIdx, cost, mem)
			}
			k := b.kernel(bn+"/kernel", layer)
			// Separable conv: pad + depthwise (bandwidth-bound) + slice
			// + pointwise (matmul-like).
			pad := bop("/pad", sc*tiny, vecBytes)
			b.edge(in, pad, mapBytes)
			dw := bop("/depthwise", sc*elemwiseCost(mapElems*9/4), int64(bwScale)*tensorBytes(mapElems))
			b.edge(k, dw, 64)
			b.edge(pad, dw, mapBytes)
			slc := bop("/slice", sc*tiny, vecBytes)
			b.edge(dw, slc, mapBytes)
			pw := bop("/pointwise", sc*matmulCost(1, B*S*S, F, F), int64(bwScale)*(tensorBytes(mapElems)+tensorBytes(F*F)))
			b.edge(slc, pw, mapBytes)
			// Batch norm decomposed the way TensorFlow's graph shows
			// it: two reductions plus three per-channel vector ops.
			mean := bop("/bn_mean", sc*elemwiseCost(mapElems/8), vecBytes)
			b.edge(pw, mean, mapBytes)
			variance := bop("/bn_var", sc*elemwiseCost(mapElems/8), vecBytes)
			b.edge(pw, variance, mapBytes)
			rsqrt := bop("/bn_rsqrt", sc*tiny, vecBytes)
			b.edge(variance, rsqrt, vecBytes)
			scale := bop("/bn_scale", sc*elemwiseCost(mapElems), tensorBytes(mapElems))
			b.edge(pw, scale, mapBytes)
			b.edge(mean, scale, vecBytes)
			b.edge(rsqrt, scale, vecBytes)
			shift := bop("/bn_shift", sc*tiny, vecBytes)
			b.edge(scale, shift, mapBytes)
			relu := bop("/relu", sc*elemwiseCost(mapElems), tensorBytes(mapElems))
			b.edge(shift, relu, mapBytes)
			b.edge(relu, add, mapBytes)
			// Optimizer bookkeeping for the branch's two weight
			// tensors (momentum read/update/apply), tiny ops.
			opt := pad
			for _, s := range []string{"/opt_read", "/opt_mom", "/opt_apply"} {
				o := bop(s, sc*tiny, vecBytes)
				b.edge(opt, o, vecBytes)
				opt = o
			}
		}
		b.edge(add, concat, mapBytes)
	}
	return concat
}
