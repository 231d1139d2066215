package models

import (
	"fmt"
	"time"

	"pesto/internal/graph"
)

// TransformerConfig parameterizes the Transformer [Vaswani et al.]
// sequence-to-sequence model the paper trains on WMT14 (§5.2: 10- and
// 12-layer 8-head 1024-hidden variants, and 6-layer 16-head
// 2048-hidden, batch 32 sentences).
type TransformerConfig struct {
	// Layers is the number of encoder layers (the decoder gets the
	// same count).
	Layers int
	// Heads is the number of attention heads.
	Heads int
	// Hidden is the model dimension d_model.
	Hidden int
	// Batch is sentences per batch (paper: 32).
	Batch int
	// SeqLen is tokens per sentence; zero means 32.
	SeqLen int
	// Vocab is the shared vocabulary; zero means 32000.
	Vocab int
	// TargetMemory calibrates the total footprint; zero keeps raw.
	TargetMemory int64
}

// ff is the feed-forward inner size, 4×Hidden.
func (c TransformerConfig) ff() int { return 4 * c.Hidden }

func (c TransformerConfig) withDefaults() TransformerConfig {
	if c.SeqLen == 0 {
		c.SeqLen = 32
	}
	if c.Vocab == 0 {
		c.Vocab = 32000
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	return c
}

// Transformer builds the forward+backward training graph: encoder and
// decoder stacks of multi-head attention + feed-forward blocks (the
// Figure 1 architecture). Per-head score/softmax/context chains give
// some intra-layer parallelism, but the long residual chains make the
// model communication-bound across layer cuts — the reason §5.3 reports
// only moderate (~8%) Pesto gains here.
func Transformer(cfg TransformerConfig) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.Layers < 1 || cfg.Heads < 1 || cfg.Hidden < 1 {
		return nil, fmt.Errorf("transformer: invalid config %+v", cfg)
	}
	B, T, H := cfg.Batch, cfg.SeqLen, cfg.Hidden
	tok := B * T
	b := newBuilder(cfg.Layers * cfg.Heads * 24)
	actBytes := tensorBytes(tok * H)

	input := b.cpu("input_pipeline", 0, 60*time.Microsecond)
	embed := b.gpu("embed", 1, elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(input, embed, tensorBytes(tok))
	posEnc := b.gpu("positional_encoding", 1, elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(embed, posEnc, actBytes)

	layerOut := posEnc
	encOuts := make([]graph.NodeID, 0, cfg.Layers)
	for l := 1; l <= cfg.Layers; l++ {
		layerOut = transformerBlock(b, fmt.Sprintf("enc/l%d", l), l, cfg, layerOut, -1, 1)
		encOuts = append(encOuts, layerOut)
	}
	encTop := layerOut

	decIn := b.gpu("dec/embed", cfg.Layers+1, elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(input, decIn, tensorBytes(tok))
	layerOut = decIn
	for l := 1; l <= cfg.Layers; l++ {
		layerOut = transformerBlock(b, fmt.Sprintf("dec/l%d", l), cfg.Layers+l, cfg, layerOut, encTop, 1)
	}

	lossLayer := 2*cfg.Layers + 1
	k := b.kernel("proj/kernel", lossLayer)
	proj := b.gpu("proj", lossLayer, matmulCost(1, tok, H, cfg.Vocab/4), tensorBytes(tok*cfg.Vocab/4))
	b.edge(k, proj, 64)
	b.edge(layerOut, proj, actBytes)
	sm := b.gpu("softmax", lossLayer, elemwiseCost(tok*cfg.Vocab/4), tensorBytes(tok*cfg.Vocab/4))
	b.edge(proj, sm, tensorBytes(tok*cfg.Vocab/4))
	loss := b.gpu("loss", lossLayer, elemwiseCost(tok), tensorBytes(tok))
	b.edge(sm, loss, tensorBytes(tok*cfg.Vocab/4))

	// Backward pass: mirrored blocks at 2× cost, decoder then encoder.
	grad := b.gpu("bw/loss_grad", lossLayer, 2*elemwiseCost(tok*cfg.Vocab/4), actBytes)
	b.edge(loss, grad, tensorBytes(tok))
	for l := cfg.Layers; l >= 1; l-- {
		grad = transformerBlock(b, fmt.Sprintf("bw/dec/l%d", l), cfg.Layers+l, cfg, grad, encTop, 2)
	}
	encGrad := grad
	for l := cfg.Layers; l >= 1; l-- {
		inputs := encGrad
		encGrad = transformerBlock(b, fmt.Sprintf("bw/enc/l%d", l), l, cfg, inputs, -1, 2)
		// Activation reuse from the forward pass.
		b.edge(encOuts[l-1], encGrad, actBytes)
	}
	// Optimizer: one apply op per layer.
	for l := 1; l <= 2*cfg.Layers; l++ {
		paramBytes := tensorBytes(4*H*H + 2*H*cfg.ff())
		apply := b.gpu(fmt.Sprintf("apply_grad/l%d", l), l, elemwiseCost((4*H*H+2*H*cfg.ff())/64), paramBytes)
		b.edge(encGrad, apply, paramBytes/int64(2*cfg.Layers))
	}

	g, err := b.finish("transformer")
	if err != nil {
		return nil, err
	}
	scaleMemory(g, cfg.TargetMemory)
	return g, nil
}

// transformerBlock emits one encoder/decoder block: multi-head (self-)
// attention (+ cross-attention when cross >= 0), residuals, layernorms
// and the feed-forward sublayer. bwScale doubles costs for backward
// blocks. Returns the block output op.
func transformerBlock(b *builder, name string, layer int, cfg TransformerConfig, in graph.NodeID, cross graph.NodeID, bwScale int) graph.NodeID {
	B, T, H := cfg.Batch, cfg.SeqLen, cfg.Hidden
	tok := B * T
	actBytes := tensorBytes(tok * H)
	sc := time.Duration(bwScale)

	out := multiHeadAttention(b, name+"/self_attn", layer, cfg, in, in, bwScale)
	res1 := b.gpu(name+"/residual1", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(in, res1, actBytes)
	b.edge(out, res1, actBytes)
	ln1 := b.gpu(name+"/layernorm1", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(res1, ln1, actBytes)
	cur := ln1

	if cross >= 0 {
		xo := multiHeadAttention(b, name+"/cross_attn", layer, cfg, cur, cross, bwScale)
		resX := b.gpu(name+"/residualX", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
		b.edge(cur, resX, actBytes)
		b.edge(xo, resX, actBytes)
		lnX := b.gpu(name+"/layernormX", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
		b.edge(resX, lnX, actBytes)
		cur = lnX
	}

	k1 := b.kernel(name+"/ffn/kernel1", layer)
	ff1 := b.gpu(name+"/ffn/matmul1", layer, sc*matmulCost(1, tok, H, cfg.ff()),
		int64(bwScale)*(tensorBytes(tok*cfg.ff())+tensorBytes(H*cfg.ff())))
	b.edge(k1, ff1, 64)
	b.edge(cur, ff1, actBytes)
	relu := b.gpu(name+"/ffn/relu", layer, sc*elemwiseCost(tok*cfg.ff()), tensorBytes(tok*cfg.ff()))
	b.edge(ff1, relu, tensorBytes(tok*cfg.ff()))
	k2 := b.kernel(name+"/ffn/kernel2", layer)
	ff2 := b.gpu(name+"/ffn/matmul2", layer, sc*matmulCost(1, tok, cfg.ff(), H),
		int64(bwScale)*(tensorBytes(tok*H)+tensorBytes(H*cfg.ff())))
	b.edge(k2, ff2, 64)
	b.edge(relu, ff2, tensorBytes(tok*cfg.ff()))
	res2 := b.gpu(name+"/residual2", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(cur, res2, actBytes)
	b.edge(ff2, res2, actBytes)
	ln2 := b.gpu(name+"/layernorm2", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
	b.edge(res2, ln2, actBytes)
	return ln2
}

// multiHeadAttention emits the QKV projections, per-head score/softmax/
// context chains, concat and output projection.
func multiHeadAttention(b *builder, name string, layer int, cfg TransformerConfig, query, memory graph.NodeID, bwScale int) graph.NodeID {
	B, T, H := cfg.Batch, cfg.SeqLen, cfg.Hidden
	tok := B * T
	dk := H / cfg.Heads
	actBytes := tensorBytes(tok * H)
	headBytes := tensorBytes(tok * dk)
	sc := time.Duration(bwScale)

	kq := b.kernel(name+"/qkv_kernel", layer)
	qkv := b.gpu(name+"/qkv_matmul", layer, sc*matmulCost(1, tok, H, 3*H),
		int64(bwScale)*(tensorBytes(3*tok*H)+tensorBytes(3*H*H)))
	b.edge(kq, qkv, 64)
	b.edge(query, qkv, actBytes)
	if memory != query {
		b.edge(memory, qkv, actBytes)
	}

	concat := b.gpu(name+"/concat", layer, sc*elemwiseCost(tok*H), tensorBytes(tok*H))
	for h := 0; h < cfg.Heads; h++ {
		hn := fmt.Sprintf("%s/head%d", name, h)
		scores := b.gpu(hn+"/scores", layer, sc*matmulCost(B, T, dk, T), tensorBytes(B*T*T))
		b.edge(qkv, scores, 2*headBytes)
		smx := b.gpu(hn+"/softmax", layer, sc*elemwiseCost(B*T*T), tensorBytes(B*T*T))
		b.edge(scores, smx, tensorBytes(B*T*T))
		ctx := b.gpu(hn+"/context", layer, sc*matmulCost(B, T, T, dk), tensorBytes(tok*dk))
		b.edge(smx, ctx, tensorBytes(B*T*T))
		b.edge(qkv, ctx, headBytes)
		b.edge(ctx, concat, headBytes)
	}
	ko := b.kernel(name+"/out_kernel", layer)
	out := b.gpu(name+"/out_proj", layer, sc*matmulCost(1, tok, H, H),
		int64(bwScale)*(tensorBytes(tok*H)+tensorBytes(H*H)))
	b.edge(ko, out, 64)
	b.edge(concat, out, actBytes)
	return out
}
