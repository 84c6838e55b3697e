/* serve-bigimage tenant "kv": a sparse writer. init() fills a 256 KiB
   table once, before the pool freezes its image; each request reads 16
   slots and writes one, so a request dirties one granule of a 4 MiB
   image that the pool restores in full. */

long kv_table = 0;

int init() {
  long *t = (long *)malloc(262144);
  for (int i = 0; i < 32768; i++) { t[i] = (long)i * 2654435761; }
  kv_table = (long)t;
  return 0;
}

int main() {
  long *t = (long *)kv_table;
  long h = 17;
  for (int i = 0; i < 16; i++) {
    h = h * 31 + t[(int)(((unsigned long)(h + i * 4099)) % 32768)];
  }
  t[(int)(((unsigned long)h) % 32768)] = h;
  return (int)(((unsigned long)h) % 1000003);
}
