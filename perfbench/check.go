package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"image/png"
	"slices"
	"sync"

	"repro/internal/hist"
	"repro/internal/imgutil"
)

// checker verifies answers independently of the pipeline that produced
// them: the mosaic's tiles must be a permutation of the histogram-matched
// input's tiles (compared as multisets of tile hashes), and the reported
// total error must recompute exactly as Σ|mosaic − target|. Histogram
// matching uses hist.Match, the unfused reference the pipeline's fused
// gather is tested against.
type checker struct {
	mu    sync.Mutex
	cache map[checkKey]*expected
}

type checkKey struct {
	pair  pairSpec
	tiles int
}

type expected struct {
	target *imgutil.Gray
	tiles  []uint64 // sorted hashes of the matched input's tiles
}

func newChecker() *checker { return &checker{cache: map[checkKey]*expected{}} }

func (c *checker) expect(p pairSpec, tiles int) (*expected, error) {
	k := checkKey{p, tiles}
	c.mu.Lock()
	e, ok := c.cache[k]
	c.mu.Unlock()
	if ok {
		return e, nil
	}
	in, tgt := p.images()
	matched, err := hist.Match(in, tgt)
	if err != nil {
		return nil, fmt.Errorf("reference histogram match: %w", err)
	}
	e = &expected{target: tgt, tiles: tileHashes(matched, p.size/tiles)}
	c.mu.Lock()
	c.cache[k] = e
	c.mu.Unlock()
	return e, nil
}

// checkImage verifies a decoded mosaic against its pair.
func (c *checker) checkImage(p pairSpec, tiles int, mosaic *imgutil.Gray, totalError int64) error {
	e, err := c.expect(p, tiles)
	if err != nil {
		return err
	}
	if mosaic.W != p.size || mosaic.H != p.size {
		return fmt.Errorf("mosaic is %dx%d, want %dx%d", mosaic.W, mosaic.H, p.size, p.size)
	}
	if !slices.Equal(tileHashes(mosaic, p.size/tiles), e.tiles) {
		return fmt.Errorf("mosaic tiles are not a permutation of the matched input's tiles")
	}
	sum, err := mosaic.AbsDiffSum(e.target)
	if err != nil {
		return err
	}
	if sum != totalError {
		return fmt.Errorf("total_error %d, but Σ|mosaic − target| = %d", totalError, sum)
	}
	return nil
}

// checkPNG decodes a base64 PNG answer and verifies it.
func (c *checker) checkPNG(p pairSpec, tiles int, b64 string, totalError int64) error {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return fmt.Errorf("png_base64: %w", err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("decode mosaic: %w", err)
	}
	return c.checkImage(p, tiles, imgutil.GrayFromImage(img), totalError)
}

// tileHashes returns the sorted FNV-1a hashes of img's m×m tiles.
func tileHashes(img *imgutil.Gray, m int) []uint64 {
	var out []uint64
	h := fnv.New64a()
	for ty := 0; ty+m <= img.H; ty += m {
		for tx := 0; tx+m <= img.W; tx += m {
			h.Reset()
			for y := ty; y < ty+m; y++ {
				_, _ = h.Write(img.Pix[y*img.W+tx : y*img.W+tx+m])
			}
			out = append(out, h.Sum64())
		}
	}
	slices.Sort(out)
	return out
}
