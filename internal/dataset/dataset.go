// Package dataset provides the reproduction's data substrate.
//
// The paper evaluates on the EDBT/ICDT 2013 "String Similarity Search/Join
// Competition" datasets: 400,000 city names (byte alphabet ≈ 255, length
// ≤ 64) and 750,000 human-genome reads (alphabet A, C, G, N, T, length
// ≈ 100). Those files are not redistributable and the competition site is
// long gone, so this package generates synthetic datasets with the same
// statistical profile (see DESIGN.md, "Substitutions"):
//
//   - Cities composes names from multilingual morpheme inventories (Latin,
//     German, French, Slavic, Nordic, transliterated and raw non-ASCII
//     fragments). Names share prefixes the way real gazetteers do, lengths
//     are capped at 64 bytes, and the byte alphabet covers most of 0x20–0xFF.
//   - DNAReads samples fixed-length reads from a synthetic Markov genome and
//     passes them through a sequencing-error channel (substitutions, indels
//     and rare 'N' no-calls), giving the high mutual similarity between
//     overlapping reads that makes a prefix tree effective.
//
// Queries perturbs dataset strings with a bounded number of random edits,
// mirroring the competition workloads, and Stats reproduces Table I.
package dataset

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
)

// maxCityLen is the paper's Table I length cap for city names.
const maxCityLen = 64

// readLen is the paper's Table I genome read length ("ca. 100").
const readLen = 100

// dnaAlphabet is the 5-symbol read alphabet of Table I.
const dnaAlphabet = "ACGNT"

// City-name morpheme inventories. The mixture is tuned so that the byte
// alphabet of a generated dataset approaches the paper's "ca. 255 symbols":
// plain ASCII stems, Latin-1/Latin-2 diacritics and raw multi-byte UTF-8
// fragments (Cyrillic, Greek, CJK) together cover most byte values.
var (
	cityPrefixes = []string{
		"", "", "", "", "", "", "", "", // most names have no prefix
		"Bad ", "San ", "Santa ", "Saint-", "Sankt ", "New ", "Nova ",
		"Novo", "Alt-", "Ober", "Unter", "Nieder", "Groß-", "Klein-",
		"Los ", "El ", "La ", "Le ", "Las ", "Port ", "Fort ", "Mount ",
		"Upper ", "Lower ", "North ", "South ", "East ", "West ",
		"Stary ", "Novy ", "Velké ", "Malé ", "Kirch", "Markt",
	}
	cityStems = []string{
		"berl", "hamb", "münch", "köln", "frankf", "stuttg", "düsseld",
		"dortm", "ess", "leipz", "brem", "dresd", "hann", "nürnb",
		"magdeb", "erlang", "würzb", "augsb", "regensb", "kiel", "rost",
		"lond", "manchest", "birmingh", "liverp", "leeds", "sheff",
		"bright", "newc", "nott", "glasg", "edinb", "card", "belf",
		"par", "marse", "lyon", "toul", "nice", "nant", "strasb",
		"montpell", "bord", "lill", "renn", "reims", "grenob",
		"madr", "barcel", "valenc", "sevill", "zarag", "málag", "bilb",
		"rom", "mil", "nap", "tur", "palerm", "genov", "bologn",
		"firenz", "venez", "ver", "mess", "tries",
		"mosk", "petersb", "novosib", "jekaterinb", "kaz", "tscheljab",
		"wladiw", "wolgogr", "krasnoj", "sarat",
		"warsz", "krak", "łódź", "wrocł", "pozn", "gdań", "szczec",
		"lubl", "białyst", "katow",
		"prag", "brn", "ostrav", "plzeň", "olomouc", "liber",
		"wien", "graz", "linz", "salzb", "innsbr", "klagenf",
		"zür", "genf", "basel", "lausann", "bern", "luz",
		"stockh", "göteb", "malmö", "uppsal", "västerås", "örebr",
		"osl", "berg", "trondh", "stavang", "tromsø", "drammen",
		"købenH", "århus", "odens", "aalb", "esbjer",
		"helsink", "esp", "tamper", "vant", "oul", "turk",
		"lissab", "port", "brag", "coimbr", "funch",
		"athen", "thessalon", "patr", "irakl", "lariss",
		"istanb", "ankar", "izmir", "burs", "adan", "gaziant",
		"kair", "alexandr", "giz", "luxor", "assu",
		"toki", "osak", "kyot", "nagoy", "sappor", "fukuok",
		"pekin", "shangh", "kant", "shenzh", "chengd", "wuh",
		"delh", "mumb", "bangal", "chenn", "kolkat", "hyderab",
		"sydn", "melbourn", "brisban", "perth", "adelaid",
		"chicag", "bost", "seattl", "portl", "denv", "austn",
		"dall", "houst", "phoen", "philadelph", "detro", "atlant",
		"toront", "montreal", "vancouv", "calgar", "ottaw", "québ",
		"mexik", "guadalajar", "monterr", "puebl", "tijuan",
		"bogot", "medell", "cal", "barranquill", "cartagen",
		"buenos", "córdob", "rosari", "mendoz", "la plat",
		"sã", "ri", "brasíl", "salvad", "fortalez", "recif",
	}
	citySuffixes = []string{
		"in", "urg", "en", "ow", "au", "itz", "eck", "feld", "berg",
		"burg", "dorf", "hausen", "heim", "hofen", "ingen", "stadt",
		"stedt", "tal", "wald", "weiler", "brück", "furt", "kirchen",
		"münster", "rode", "walde", "beck", "büttel",
		"ton", "ham", "bury", "field", "ford", "port", "mouth",
		"chester", "caster", "wick", "wich", "worth", "by", "thorpe",
		"ville", "court", "mont", "bourg", "champ", "fontaine",
		"ona", "ia", "ita", "osa", "ella", "etta", "ino", "ano",
		"grad", "gorod", "sk", "insk", "ovo", "evo", "ino", "niki",
		"ice", "nice", "vice", "any", "ov", "ín", "ice",
		"ás", "háza", "falva", "vár", "hely",
		"stad", "sund", "vik", "ås", "ö", "holm", "borg", "köping",
		"polis", "ion", "os", "as",
		"abad", "pur", "nagar", "ganj", "kot",
		"ich", "ach", "era", "ara", "osa",
	}
	cityConnectors = []string{
		" am Main", " an der Oder", " an der Havel", " am See",
		" upon Tyne", " on Sea", " sur Mer", " de la Sierra",
		" del Norte", " do Sul", " nad Labem", " na Odrze",
		" bei Berlin", " im Tal", "-les-Bains", "-sur-Loire",
	}
	// Raw non-Latin fragments (UTF-8): these contribute the high byte
	// values that push the alphabet towards 255 distinct symbols.
	cityExotic = []string{
		"Москва", "Київ", "Санкт", "Горо́д", "Αθήνα", "Πόλη",
		"北京", "東京", "서울", "القاهرة", "תל אביב", "Þórshöfn",
		" Værøy", "Çanakkale", "Šibenik", "Żywiec", " Łęczna",
		"Đà Nẵng", "İzmir", "Ōsaka", "São", "Kraków",
	}
)

// Cities generates n synthetic city names, deterministically from seed.
// Every name is 1..MaxCityLen bytes, contains no control bytes (so the
// one-string-per-line file format stays unambiguous) and the aggregate byte
// alphabet is large (≈ 200+ distinct byte values for n ≥ 10,000).
func Cities(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		sb.WriteString(cityPrefixes[r.Intn(len(cityPrefixes))])
		if r.Intn(12) == 0 {
			// An exotic-script name, optionally suffixed with a Latin tail.
			sb.WriteString(cityExotic[r.Intn(len(cityExotic))])
			if r.Intn(2) == 0 {
				sb.WriteString(citySuffixes[r.Intn(len(citySuffixes))])
			}
		} else if r.Intn(10) == 0 {
			// A fully non-Latin name: random code points from Latin-1
			// Supplement, Latin Extended-A, Greek, Cyrillic and CJK blocks.
			// These runs are what pushes the dataset's byte alphabet towards
			// the paper's "ca. 255 symbols".
			runes := 2 + r.Intn(6)
			for j := 0; j < runes; j++ {
				sb.WriteRune(exoticRune(r))
			}
		} else {
			stem := cityStems[r.Intn(len(cityStems))]
			sb.WriteString(title(stem))
			sb.WriteString(citySuffixes[r.Intn(len(citySuffixes))])
			if r.Intn(8) == 0 {
				sb.WriteString(cityConnectors[r.Intn(len(cityConnectors))])
			}
			if r.Intn(16) == 0 {
				sb.WriteByte(' ')
				sb.WriteString(title(cityStems[r.Intn(len(cityStems))]))
				sb.WriteString(citySuffixes[r.Intn(len(citySuffixes))])
			}
		}
		name := sb.String()
		if len(name) > maxCityLen {
			name = truncateUTF8(name, maxCityLen)
		}
		if name == "" {
			name = "X"
		}
		out[i] = name
	}
	return out
}

// exoticRune draws a random code point from one of several non-ASCII
// blocks; together their UTF-8 encodings cover nearly all byte values.
func exoticRune(r *rand.Rand) rune {
	blocks := [...][2]rune{
		{0x00C0, 0x00FF}, // Latin-1 Supplement letters
		{0x0100, 0x017F}, // Latin Extended-A
		{0x0386, 0x03CE}, // Greek
		{0x0400, 0x04FF}, // Cyrillic
		{0x0531, 0x0556}, // Armenian
		{0x05D0, 0x05EA}, // Hebrew
		{0x0620, 0x064A}, // Arabic
		{0x0905, 0x0939}, // Devanagari
		{0x0E01, 0x0E2E}, // Thai
		{0x10A0, 0x10F0}, // Georgian
		{0x3041, 0x30FE}, // Hiragana / Katakana
		{0x4E00, 0x9FBF}, // CJK Unified Ideographs
		{0xAC00, 0xD7A3}, // Hangul syllables
		// Uniform sweeps so every UTF-8 lead byte occurs somewhere in a
		// large dataset (the paper reports "ca. 255 symbols").
		{0x0080, 0x07FF},     // all 2-byte leads C2–DF
		{0x0800, 0xD7FF},     // 3-byte leads E0–ED
		{0xE000, 0xFFFD},     // 3-byte leads EE–EF
		{0x10000, 0x13FFF},   // 4-byte lead F0
		{0x40000, 0x4FFFF},   // 4-byte lead F1
		{0x80000, 0x8FFFF},   // 4-byte lead F2
		{0xC0000, 0xCFFFF},   // 4-byte lead F3
		{0x100000, 0x10FFFD}, // 4-byte lead F4
	}
	b := blocks[r.Intn(len(blocks))]
	return b[0] + rune(r.Intn(int(b[1]-b[0]+1)))
}

// title upper-cases the first byte if it is a lower-case ASCII letter.
func title(s string) string {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// truncateUTF8 cuts s to at most max bytes without splitting a multi-byte
// UTF-8 sequence.
func truncateUTF8(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && s[cut]&0xC0 == 0x80 {
		cut--
	}
	return s[:cut]
}

// newGenome synthesizes a random reference genome of the given length using an
// order-1 Markov chain over ACGT with a mild GC bias and rare N runs
// (no-call regions), deterministically from seed.
func newGenome(length int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	const bases = "ACGT"
	// Transition matrix with weak structure (repeats are what give real
	// genomes their prefix redundancy).
	trans := [4][4]float64{
		{0.32, 0.18, 0.25, 0.25}, // from A
		{0.30, 0.25, 0.05, 0.40}, // from C (CG suppressed, like real DNA)
		{0.25, 0.25, 0.25, 0.25}, // from G
		{0.20, 0.25, 0.30, 0.25}, // from T
	}
	out := make([]byte, length)
	state := r.Intn(4)
	for i := 0; i < length; i++ {
		if r.Intn(5000) == 0 {
			// An N run of 1..10 no-calls.
			runLen := 1 + r.Intn(10)
			for j := 0; j < runLen && i < length; j++ {
				out[i] = 'N'
				i++
			}
			if i >= length {
				break
			}
		}
		x := r.Float64()
		acc := 0.0
		next := 3
		for b := 0; b < 4; b++ {
			acc += trans[state][b]
			if x < acc {
				next = b
				break
			}
		}
		out[i] = bases[next]
		state = next
	}
	return string(out)
}

// DNAReads samples n reads of length readLen from a synthetic genome and
// applies a sequencing-error channel: ~0.5% substitutions, ~0.05% indels and
// ~0.1% N no-calls per base. The genome length scales with n so coverage
// stays around 20×, which yields the heavy read overlap of real resequencing
// data.
func DNAReads(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	genomeLen := n * readLen / 20
	if genomeLen < 10*readLen {
		genomeLen = 10 * readLen
	}
	genome := newGenome(genomeLen, seed^0x5E3779B97F4A7C15)
	out := make([]string, n)
	buf := make([]byte, 0, readLen+8)
	for i := range out {
		start := r.Intn(len(genome) - readLen)
		buf = buf[:0]
		buf = append(buf, genome[start:start+readLen]...)
		// Error channel.
		for p := 0; p < len(buf); p++ {
			switch x := r.Float64(); {
			case x < 0.005: // substitution
				buf[p] = "ACGT"[r.Intn(4)]
			case x < 0.006: // no-call
				buf[p] = 'N'
			case x < 0.0065 && len(buf) > 1: // deletion
				buf = append(buf[:p], buf[p+1:]...)
			case x < 0.007: // insertion
				buf = append(buf[:p], append([]byte{"ACGT"[r.Intn(4)]}, buf[p:]...)...)
				p++
			}
		}
		out[i] = string(buf)
	}
	return out
}

// Queries draws n query strings from data and perturbs each with 0..maxEdits
// random single-character edits over the dataset's own alphabet, mirroring
// the competition's near-match workloads.
func Queries(data []string, n, maxEdits int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	alpha := alphabetOf(data, 64)
	out := make([]string, n)
	for i := range out {
		s := data[r.Intn(len(data))]
		out[i] = mutate(r, s, r.Intn(maxEdits+1), alpha)
	}
	return out
}

// QueriesZipf draws n query strings from data with Zipf-skewed popularity
// (rank-frequency exponent s > 1): a few dataset strings dominate the
// workload, as real query logs do. Each query is perturbed with 0..maxEdits
// random edits like Queries.
func QueriesZipf(data []string, n, maxEdits int, s float64, seed int64) []string {
	if s <= 1 {
		s = 1.1
	}
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(len(data)-1))
	alpha := alphabetOf(data, 64)
	out := make([]string, n)
	for i := range out {
		base := data[int(z.Uint64())]
		out[i] = mutate(r, base, r.Intn(maxEdits+1), alpha)
	}
	return out
}

// mutate applies exactly edits random single-character operations
// (substitution, insertion, deletion in equal parts) to s, drawing new
// characters from alphabet. The result is within edit distance edits of s.
func mutate(r *rand.Rand, s string, edits int, alphabet string) string {
	if alphabet == "" {
		alphabet = "a"
	}
	bs := []byte(s)
	for i := 0; i < edits; i++ {
		switch op := r.Intn(3); {
		case op == 0 && len(bs) > 0: // substitute
			bs[r.Intn(len(bs))] = alphabet[r.Intn(len(alphabet))]
		case op == 1 && len(bs) > 0: // delete
			p := r.Intn(len(bs))
			bs = append(bs[:p], bs[p+1:]...)
		default: // insert
			p := r.Intn(len(bs) + 1)
			bs = append(bs[:p], append([]byte{alphabet[r.Intn(len(alphabet))]}, bs[p:]...)...)
		}
	}
	return string(bs)
}

// alphabetOf samples the distinct bytes of data (capped scan for speed).
func alphabetOf(data []string, maxStrings int) string {
	var seen [256]bool
	step := 1
	if len(data) > maxStrings {
		step = len(data) / maxStrings
	}
	var sb strings.Builder
	for i := 0; i < len(data); i += step {
		for j := 0; j < len(data[i]); j++ {
			c := data[i][j]
			if !seen[c] {
				seen[c] = true
				sb.WriteByte(c)
			}
		}
	}
	return sb.String()
}

// Info summarizes a dataset as in the paper's Table I.
type Info struct {
	Count   int
	Symbols int // distinct byte values
	MinLen  int
	MaxLen  int
	AvgLen  float64
}

// Stats computes the Table I row for a dataset.
func Stats(data []string) Info {
	var seen [256]bool
	info := Info{Count: len(data)}
	total := 0
	for i, s := range data {
		if i == 0 || len(s) < info.MinLen {
			info.MinLen = len(s)
		}
		if len(s) > info.MaxLen {
			info.MaxLen = len(s)
		}
		total += len(s)
		for j := 0; j < len(s); j++ {
			seen[s[j]] = true
		}
	}
	for _, b := range seen {
		if b {
			info.Symbols++
		}
	}
	if len(data) > 0 {
		info.AvgLen = float64(total) / float64(len(data))
	}
	return info
}

// String renders the Table I row.
func (i Info) String() string {
	return fmt.Sprintf("#data=%d symbols=%d len[min=%d avg=%.1f max=%d]",
		i.Count, i.Symbols, i.MinLen, i.AvgLen, i.MaxLen)
}

// Save writes data one string per line. Strings must not contain newline
// bytes; Save reports an error identifying the offending string otherwise.
func Save(path string, data []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range data {
		if strings.IndexByte(s, '\n') >= 0 {
			f.Close()
			return fmt.Errorf("dataset: string %d contains a newline", i)
		}
		if _, err := w.WriteString(s); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a one-string-per-line file written by Save.
func Load(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
