// SWAR (SIMD-within-a-register) tile-error kernels.
//
// Eq. (1) is a sum of per-byte absolute differences — the classic SAD kernel
// of motion estimation, and the dominant, trivially vectorizable cost of
// Step 2 (the S×S matrix performs S²·M² of them). The store-backed L1
// builders run it as a row kernel (row.go; SSE2 PSADBW on amd64), so the
// SWAR kernels here are the single-pair path — TileError, the crop-path
// builders and every L2 build — and, through tileErrorL1RowGo, the row
// kernel on architectures without an assembly version. The loops below
// process eight pixels per uint64 word on plain integer arithmetic, four
// words per iteration, using the packed-subtract/borrow-mask construction
// (Hacker's Delight §2-18): with H marking each byte's top bit,
//
//	d  = ((x|H) − (y&^H)) ^ ((x^y^H)&H)   per-byte x−y (mod 256)
//	bo = (^x & y) | ((^x | y) & d)        top bit set where the byte borrowed
//	bm = (bo & H) >> 7                    0/1 per byte: 1 iff x < y
//	f  = bm<<8 − bm                       0x00/0xFF spread of bm
//	ad = (d ^ f) + bm                     per-byte |x−y| (negate-where-borrowed)
//
// carries never cross byte boundaries, so all eight lanes are exact. The
// per-byte absolute differences are then accumulated in packed 16-bit lanes
// and flushed to the scalar total before the lanes can overflow.
//
// TileErrorScalar keeps the byte-at-a-time transcription of Eq. (1) as the
// reference oracle; FuzzTileErrorSWAR differentially tests the two on
// arbitrary bytes and lengths, and every matrix builder must stay
// bit-identical to the scalar build (TestBuildersEquivalent).
package metric

import "encoding/binary"

const (
	// laneEven extracts the even bytes of a word into four 16-bit lanes.
	laneEven = 0x00FF00FF00FF00FF
	// byteHigh marks the top bit of every byte — the pivot of the packed
	// subtract and its borrow detector.
	byteHigh = 0x8080808080808080
	// flushWords bounds how many 8-byte words may accumulate into packed
	// 16-bit lane sums before they must spill into the 64-bit total: each
	// word adds at most 2·255 = 510 per lane (one even and one odd byte
	// land in the same lane index), and 128·510 = 65280 ≤ 65535. The main
	// loop splits these words across two accumulators and sums the pair
	// before flushing, which is covered by the same bound.
	flushWords = 128
	// swarMinBytes is the slice length below which the scalar loop wins
	// (word setup costs more than it saves on a couple of bytes).
	swarMinBytes = 16
)

// absDiffBytes returns |x−y| computed independently in each of the eight
// byte lanes of the two words.
func absDiffBytes(x, y uint64) uint64 {
	const H = uint64(byteHigh)
	d := ((x | H) - (y &^ H)) ^ ((x ^ y ^ H) & H)
	bo := (^x & y) | ((^x | y) & d)
	bm := (bo & H) >> 7
	f := bm<<8 - bm
	return (d ^ f) + bm
}

// tileErrorL1SWAR is the word-at-a-time L1 kernel: Σ|aᵢ−bᵢ|, 32 bytes per
// iteration with the absolute-difference math inlined (the compiler does not
// inline absDiffBytes into a 4× unrolled body, and the call costs ~10% here).
// Lane sums flush every flushWords words — see the overflow bound above.
func tileErrorL1SWAR(a, b []uint8) int64 {
	const H = uint64(byteHigh)
	var total int64
	n := len(a)
	i := 0
	for i+32 <= n {
		end := i + 8*flushWords
		if lim := n - n%32; end > lim {
			end = lim
		}
		var acc1, acc2 uint64
		for ; i < end; i += 32 {
			aa := a[i : i+32 : n]
			bb := b[i : i+32 : len(b)]
			x1 := binary.LittleEndian.Uint64(aa[0:8])
			y1 := binary.LittleEndian.Uint64(bb[0:8])
			x2 := binary.LittleEndian.Uint64(aa[8:16])
			y2 := binary.LittleEndian.Uint64(bb[8:16])
			x3 := binary.LittleEndian.Uint64(aa[16:24])
			y3 := binary.LittleEndian.Uint64(bb[16:24])
			x4 := binary.LittleEndian.Uint64(aa[24:32])
			y4 := binary.LittleEndian.Uint64(bb[24:32])
			d1 := ((x1 | H) - (y1 &^ H)) ^ ((x1 ^ y1 ^ H) & H)
			bo1 := (^x1 & y1) | ((^x1 | y1) & d1)
			bm1 := (bo1 & H) >> 7
			f1 := bm1<<8 - bm1
			ad1 := (d1 ^ f1) + bm1
			d2 := ((x2 | H) - (y2 &^ H)) ^ ((x2 ^ y2 ^ H) & H)
			bo2 := (^x2 & y2) | ((^x2 | y2) & d2)
			bm2 := (bo2 & H) >> 7
			f2 := bm2<<8 - bm2
			ad2 := (d2 ^ f2) + bm2
			d3 := ((x3 | H) - (y3 &^ H)) ^ ((x3 ^ y3 ^ H) & H)
			bo3 := (^x3 & y3) | ((^x3 | y3) & d3)
			bm3 := (bo3 & H) >> 7
			f3 := bm3<<8 - bm3
			ad3 := (d3 ^ f3) + bm3
			d4 := ((x4 | H) - (y4 &^ H)) ^ ((x4 ^ y4 ^ H) & H)
			bo4 := (^x4 & y4) | ((^x4 | y4) & d4)
			bm4 := (bo4 & H) >> 7
			f4 := bm4<<8 - bm4
			ad4 := (d4 ^ f4) + bm4
			acc1 += (ad1 & laneEven) + ((ad1 >> 8) & laneEven) +
				(ad2 & laneEven) + ((ad2 >> 8) & laneEven)
			acc2 += (ad3 & laneEven) + ((ad3 >> 8) & laneEven) +
				(ad4 & laneEven) + ((ad4 >> 8) & laneEven)
		}
		acc := acc1 + acc2
		total += int64(acc&0xFFFF) + int64((acc>>16)&0xFFFF) +
			int64((acc>>32)&0xFFFF) + int64(acc>>48)
	}
	if i+8 <= n {
		// At most three words remain — far below the lane bound.
		var acc uint64
		for ; i+8 <= n; i += 8 {
			ad := absDiffBytes(
				binary.LittleEndian.Uint64(a[i:]),
				binary.LittleEndian.Uint64(b[i:]))
			acc += (ad & laneEven) + ((ad >> 8) & laneEven)
		}
		total += int64(acc&0xFFFF) + int64((acc>>16)&0xFFFF) +
			int64((acc>>32)&0xFFFF) + int64(acc>>48)
	}
	for ; i < n; i++ {
		d := int64(a[i]) - int64(b[i])
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// sqTab maps |a−b| to its square for the L2 kernel's per-byte lookup.
var sqTab = func() (t [256]int64) {
	for i := range t {
		t[i] = int64(i) * int64(i)
	}
	return
}()

// tileErrorL2SWAR computes Σ(aᵢ−bᵢ)² by taking the eight per-byte absolute
// differences of each word in byte lanes and squaring them through a
// 256-entry table — branch-free, and the abs machinery is shared with the
// L1 kernel.
func tileErrorL2SWAR(a, b []uint8) int64 {
	var total int64
	n := len(a) &^ 7
	for i := 0; i < n; i += 8 {
		ad := absDiffBytes(
			binary.LittleEndian.Uint64(a[i:]),
			binary.LittleEndian.Uint64(b[i:]))
		total += sqTab[ad&0xFF] + sqTab[ad>>8&0xFF] +
			sqTab[ad>>16&0xFF] + sqTab[ad>>24&0xFF] +
			sqTab[ad>>32&0xFF] + sqTab[ad>>40&0xFF] +
			sqTab[ad>>48&0xFF] + sqTab[ad>>56]
	}
	for i := n; i < len(a); i++ {
		d := int64(a[i]) - int64(b[i])
		total += d * d
	}
	return total
}
